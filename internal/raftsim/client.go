package raftsim

import (
	"fmt"
	"time"

	"avd/internal/sim"
	"avd/internal/simnet"
	"avd/internal/slab"
)

// ClientConfig tunes the closed-loop Raft clients.
type ClientConfig struct {
	// Retry is the initial retransmission timeout; retries rotate to the
	// next node when no leader hint is known.
	Retry time.Duration
	// RetryCap bounds the exponential retransmission backoff.
	RetryCap time.Duration
}

// DefaultClientConfig matches the compressed cluster timers: a retry
// slightly above the worst-case election timeout.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Retry:    100 * time.Millisecond,
		RetryCap: 800 * time.Millisecond,
	}
}

// ClientStats counts client activity.
type ClientStats struct {
	Issued          uint64
	Completed       uint64
	Retransmissions uint64
	Redirects       uint64
}

// Client is a closed-loop Raft client: one request outstanding, the next
// issued as soon as the current one commits. It tracks the leader via
// redirect hints and rotates through the cluster on timeouts.
type Client struct {
	addr simnet.Addr
	cfg  Config
	ccfg ClientConfig
	eng  *sim.Engine
	net  *simnet.Network

	running  bool
	seq      uint64
	target   int // node the current request was last sent to
	sentAt   sim.Time
	curRetry time.Duration
	retryFor uint64
	retry    sim.Timer
	retryFn  func()

	// reqSlab bump-allocates outgoing requests; Restore rewinds it
	// (package slab), so retransmission storms cost no heap allocations on the
	// forked hot path.
	reqSlab slab.Slab[ClientRequest]

	onComplete func(seq uint64, latency time.Duration)
	stats      ClientStats
}

// ClientOption customizes client construction.
type ClientOption func(*Client)

// WithOnComplete registers a completion observer.
func WithOnComplete(fn func(seq uint64, latency time.Duration)) ClientOption {
	return func(c *Client) { c.onComplete = fn }
}

// NewClient creates a client at addr (which must not collide with node
// ids 0..N-1) and registers it on the network.
func NewClient(addr simnet.Addr, cfg Config, ccfg ClientConfig, net *simnet.Network, opts ...ClientOption) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(addr) < cfg.N {
		return nil, fmt.Errorf("raftsim: client address %v collides with node ids", addr)
	}
	if ccfg.Retry <= 0 {
		ccfg.Retry = DefaultClientConfig().Retry
	}
	if ccfg.RetryCap < ccfg.Retry {
		ccfg.RetryCap = 8 * ccfg.Retry
	}
	c := &Client{
		addr:   addr,
		cfg:    cfg,
		ccfg:   ccfg,
		eng:    net.Engine(),
		net:    net,
		target: int(addr) % cfg.N, // spread first contacts across nodes
	}
	for _, opt := range opts {
		opt(c)
	}
	c.retryFn = func() { c.onRetry(c.retryFor) }
	net.Handle(addr, c.onMessage)
	return c, nil
}

// Addr returns the client's network address.
func (c *Client) Addr() simnet.Addr { return c.addr }

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Outstanding reports whether a request is in flight and when it was
// sent (censored-latency accounting at window end).
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
	c.retry.Stop()
}

func (c *Client) issueNext() {
	if !c.running {
		return
	}
	c.seq++
	c.curRetry = c.ccfg.Retry
	c.sentAt = c.eng.Now()
	c.stats.Issued++
	c.send()
}

func (c *Client) send() {
	req := c.reqSlab.Get()
	*req = ClientRequest{Client: c.addr, Seq: c.seq}
	c.net.Send(c.addr, simnet.Addr(c.target), req)
	c.armRetry()
}

func (c *Client) armRetry() {
	c.retry.Stop()
	c.retryFor = c.seq
	c.retry = c.eng.Schedule(c.curRetry, c.retryFn)
}

func (c *Client) onRetry(seq uint64) {
	if !c.running || seq != c.seq {
		return
	}
	c.stats.Retransmissions++
	// No reply at all: the target may be isolated or electing; try the
	// next node.
	c.target = (c.target + 1) % c.cfg.N
	c.curRetry *= 2
	if c.curRetry > c.ccfg.RetryCap {
		c.curRetry = c.ccfg.RetryCap
	}
	c.send()
}

func (c *Client) onMessage(from simnet.Addr, payload any) {
	reply, ok := payload.(*ClientReply)
	if !ok || !c.running || reply.Seq != c.seq {
		return
	}
	if reply.OK {
		c.retry.Stop()
		c.stats.Completed++
		if reply.Leader >= 0 {
			c.target = reply.Leader
		}
		latency := c.eng.Now().Sub(c.sentAt)
		if c.onComplete != nil {
			c.onComplete(c.seq, latency)
		}
		c.issueNext()
		return
	}
	// Redirect: follow the hint immediately when it names someone else,
	// otherwise wait for the retry timer (the replier is as lost as we
	// are).
	c.stats.Redirects++
	if reply.Leader >= 0 && reply.Leader != int(from) {
		c.target = reply.Leader
		c.send()
	}
}
