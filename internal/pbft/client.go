package pbft

import (
	"fmt"
	"math/bits"
	"time"

	"avd/internal/faultinject"
	"avd/internal/mac"
	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// PointGenerateMAC is the fault-injection point instrumenting every MAC
// computation in a client's authenticator generation — the injection
// point of the paper's PBFT experiment. Call numbers advance by one per
// MAC entry, so with N replicas a request consumes N consecutive calls
// and a 12-bit ModMask cycles over 12/N requests.
const PointGenerateMAC = "client.generateMAC"

// ClientConfig tunes client behavior.
type ClientConfig struct {
	// Retry is the initial retransmission timeout; after it fires the
	// client broadcasts the request to all replicas.
	Retry time.Duration
	// RetryCap bounds the exponential retransmission backoff.
	RetryCap time.Duration
	// ThinkTime separates a reply from the next request (closed loop
	// when zero).
	ThinkTime time.Duration
	// Broadcast makes every first transmission go to all replicas
	// instead of just the primary. The colluding client of the
	// slow-primary attack uses this to seed the backups' request timers.
	Broadcast bool
}

// DefaultClientConfig matches the closed-loop benchmark clients of the
// PBFT evaluation: moderate retransmission timeout with backoff.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Retry:    150 * time.Millisecond,
		RetryCap: 2 * time.Second,
	}
}

// ClientStats counts client activity.
type ClientStats struct {
	Issued          uint64
	Completed       uint64
	Retransmissions uint64
	BadReplies      uint64 // replies whose MAC failed verification
}

// Client is a closed-loop PBFT client: it keeps exactly one request
// outstanding and issues the next one as soon as the current one
// completes (f+1 matching, authenticated replies).
type Client struct {
	addr    simnet.Addr
	pcfg    Config
	ccfg    ClientConfig
	eng     *sim.Engine
	net     *simnet.Network
	keyring *mac.Keyring
	inj     *faultinject.Injector
	// macPoint is the resolved generateMAC injection-point handle (the
	// per-call map lookup showed up in campaign profiles).
	macPoint *faultinject.Point

	running   bool
	view      uint64 // best known view, learned from replies
	seq       uint64
	curDone   bool // current request already completed (guards late replies)
	curDigest uint64
	sentAt    sim.Time
	// replies records the current request's per-replica results densely:
	// a presence mask plus one slot per replica id (the map this used to
	// be was a per-reply hot path).
	replies    []uint64
	repMask    uint64
	retryTimer sim.Timer
	curRetry   time.Duration
	retryFor   uint64 // request seq the retry timer was armed for
	retryFn    func() // pre-bound retry callback (no per-arm closure)
	allAddrs   []simnet.Addr
	authKeys   []mac.Key // pairwise key per replica, derived once

	// arena carves requests and their authenticator vectors: requests
	// are built once per transmission and shared by pointer, and a
	// snapshot restore rewinds the arena to its capture marks.
	arena *ClientArena

	// onComplete, when set, observes every completed request.
	onComplete func(seq uint64, latency time.Duration)

	stats ClientStats
}

// ClientArena is the pair of rewindable slabs (package slab) clients
// carve requests and authenticator vectors from. A deployment gives all
// its clients one arena, so its request traffic writes through one
// allocation stream instead of one per client, and parking it returns
// one set of chunks; a client built without one gets a private arena.
// Every client of an arena captures the same marks (client snapshots
// allocate nothing from it), and Client.Restore allocates nothing from
// it either, so rewinding once per client is the same as rewinding once.
type ClientArena struct {
	reqs  slab.Slab[Request]
	auths slab.Slab[mac.Tag]
}

// ClientOption customizes client construction.
type ClientOption func(*Client)

// WithInjector routes the client's MAC generation through a fault
// injector; malicious clients get a ModMask plan here.
func WithInjector(in *faultinject.Injector) ClientOption {
	return func(c *Client) { c.inj = in }
}

// WithOnComplete registers a completion observer.
func WithOnComplete(fn func(seq uint64, latency time.Duration)) ClientOption {
	return func(c *Client) { c.onComplete = fn }
}

// WithArena makes the client carve its requests from a shared arena.
func WithArena(a *ClientArena) ClientOption {
	return func(c *Client) { c.arena = a }
}

// NewClient creates a client at addr (which must not collide with the
// replica addresses 0..N-1) and registers it on the network.
func NewClient(addr simnet.Addr, pcfg Config, ccfg ClientConfig, net *simnet.Network, keyring *mac.Keyring, opts ...ClientOption) (*Client, error) {
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	if int(addr) < pcfg.N {
		return nil, fmt.Errorf("pbft: client address %v collides with replica ids", addr)
	}
	if ccfg.Retry <= 0 {
		ccfg.Retry = DefaultClientConfig().Retry
	}
	if ccfg.RetryCap < ccfg.Retry {
		ccfg.RetryCap = 8 * ccfg.Retry
	}
	c := &Client{
		addr:    addr,
		pcfg:    pcfg,
		ccfg:    ccfg,
		eng:     net.Engine(),
		net:     net,
		keyring: keyring,
		inj:     faultinject.NewInjector(faultinject.Plan{}),
		replies: make([]uint64, pcfg.N),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.arena == nil {
		c.arena = &ClientArena{}
	}
	c.retryFn = func() { c.onRetry(c.retryFor) }
	c.macPoint = c.inj.Point(PointGenerateMAC)
	c.allAddrs = make([]simnet.Addr, pcfg.N)
	c.authKeys = make([]mac.Key, pcfg.N)
	for i := range c.allAddrs {
		c.allAddrs[i] = simnet.Addr(i)
		c.authKeys[i] = keyring.Pairwise(int(addr), i)
	}
	net.Handle(addr, c.onMessage)
	return c, nil
}

// Addr returns the client's network address.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Seq returns the client's current request number.
func (c *Client) Seq() uint64 { return c.seq }

// Outstanding reports whether a request is currently in flight and when
// it was sent; measurement code uses it to account for requests that
// never complete (censored latency).
func (c *Client) Outstanding() (sim.Time, bool) {
	if !c.running || c.seq == 0 {
		return 0, false
	}
	return c.sentAt, true
}

// Start begins the closed loop. It is idempotent.
func (c *Client) Start() {
	if c.running {
		return
	}
	c.running = true
	c.issueNext()
}

// Stop halts the loop and cancels timers.
func (c *Client) Stop() {
	c.running = false
	c.retryTimer.Stop()
}

func (c *Client) issueNext() {
	if !c.running {
		return
	}
	c.seq++
	c.curDone = false
	c.repMask = 0
	c.curRetry = c.ccfg.Retry
	c.sentAt = c.eng.Now()
	c.stats.Issued++
	req := c.buildRequest(false)
	c.curDigest = req.Digest()
	if c.ccfg.Broadcast {
		c.net.Broadcast(c.addr, c.replicaAddrs(), req)
	} else {
		c.net.Send(c.addr, simnet.Addr(c.pcfg.PrimaryOf(c.view)), req)
	}
	c.armRetry()
}

// buildRequest assembles the request with a freshly generated
// authenticator. Retransmissions regenerate all MACs, consuming new
// generateMAC call numbers — which is why a mask can corrupt a first
// transmission but leave its retransmission intact (the undocumented-bug
// dynamics of §6).
func (c *Client) buildRequest(retransmission bool) *Request {
	req := c.arena.reqs.Get()
	*req = Request{
		Client:         c.addr,
		Seq:            c.seq,
		Op:             uint64(c.seq)<<16 | uint64(c.addr)&0xffff,
		Retransmission: retransmission,
	}
	digest := req.Digest()
	auth := mac.Authenticator(c.arena.auths.GetN(c.pcfg.N))
	for i := range auth {
		auth[i] = c.generateMAC(i, digest)
	}
	req.Auth = auth
	return req
}

// generateMAC computes the authenticator entry for one replica, routing
// through the instrumented injection point.
func (c *Client) generateMAC(replica int, digest uint64) mac.Tag {
	tag := mac.Sum(c.authKeys[replica], digest)
	if d := c.macPoint.Check(); d.Action == faultinject.ActCorrupt {
		tag = mac.Corrupt(tag)
	}
	return tag
}

func (c *Client) replicaAddrs() []simnet.Addr { return c.allAddrs }

func (c *Client) armRetry() {
	c.retryTimer.Stop()
	c.retryFor = c.seq
	c.retryTimer = c.eng.Schedule(c.curRetry, c.retryFn)
}

func (c *Client) onRetry(seq uint64) {
	if !c.running || seq != c.seq {
		return
	}
	c.stats.Retransmissions++
	req := c.buildRequest(true)
	c.net.Broadcast(c.addr, c.replicaAddrs(), req)
	c.curRetry *= 2
	if c.curRetry > c.ccfg.RetryCap {
		c.curRetry = c.ccfg.RetryCap
	}
	c.armRetry()
}

func (c *Client) onMessage(from simnet.Addr, payload any) {
	reply, ok := payload.(*Reply)
	if !ok || !c.running {
		return
	}
	if reply.Seq != c.seq || reply.Client != c.addr || c.curDone {
		return
	}
	// Pairwise keys are symmetric, so the cached per-replica key vector
	// verifies replies too (the derivation showed up per-reply in
	// campaign profiles).
	if reply.Replica < 0 || reply.Replica >= len(c.authKeys) ||
		!mac.Verify(c.authKeys[reply.Replica], reply.digest(), reply.Tag) {
		c.stats.BadReplies++
		return
	}
	if reply.View > c.view {
		c.view = reply.View
	}
	c.replies[reply.Replica] = reply.Result
	c.repMask |= 1 << uint(reply.Replica)
	// f+1 matching results complete the request. Only the result just
	// recorded can newly reach the threshold, so count its matches.
	matches := 0
	m := c.repMask
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		if c.replies[i] == reply.Result {
			matches++
		}
	}
	if matches >= c.pcfg.F+1 {
		c.complete()
	}
}

func (c *Client) complete() {
	c.curDone = true
	c.stats.Completed++
	c.retryTimer.Stop()
	latency := c.eng.Now().Sub(c.sentAt)
	if c.onComplete != nil {
		c.onComplete(c.seq, latency)
	}
	if c.ccfg.ThinkTime > 0 {
		c.eng.Schedule(c.ccfg.ThinkTime, c.issueNext)
	} else {
		c.issueNext()
	}
}
