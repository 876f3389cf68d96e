// Package remote distributes MD-DSM platforms across processes: a Server
// exposes a platform's Controller over TCP, and a Client dispatches
// commands to it and subscribes to the events that reach the remote
// platform's top of stack. The 2SVM and CSVM deployments (paper §IV-C/D)
// distribute their layers across devices exactly this way; this package
// provides the wire so those splits can span real process boundaries.
//
// The protocol is newline-delimited JSON, one frame per line, each frame at
// most MaxFrame bytes:
//
//	-> {"type":"command","op":"...","target":"...","args":{...}}
//	<- {"type":"result","ok":true}            (or "error":"...")
//	-> {"type":"event","name":"...","attrs":{...}}
//	<- {"type":"result","ok":true}
//	-> {"type":"subscribe"}
//	<- {"type":"result","ok":true}
//	<- {"type":"event","name":"...","attrs":{...}}   (pushed thereafter)
//
// Failure handling is first-class: dials and round trips carry deadlines,
// writes to slow subscribers are bounded, transport failures are classified
// transient (fault.IsTransient) while endpoint rejections are permanent,
// and Conn layers reconnect-with-backoff and idempotent command retry on
// top of the single-connection Client. The named fault points SiteDial,
// SiteSend and SiteServe let a fault.Injector rehearse all of it
// deterministically.
package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// Fault-point names evaluated by this package's injector, if one is
// configured.
const (
	// SiteDial fires when a client establishes a connection.
	SiteDial = "remote.dial"
	// SiteSend fires when a client transmits a request.
	SiteSend = "remote.send"
	// SiteServe fires when the server handles a received message; a fired
	// error is reported to the client as a result error.
	SiteServe = "remote.serve"
)

// MaxFrame bounds one wire frame. A peer sending a longer line is cut off
// rather than ballooning the process; the previous decoder accepted
// unbounded input.
const MaxFrame = 1 << 20

// ProtocolVersion is the wire protocol revision this package speaks. A
// frame may carry an explicit version (clients opt in via WithProtocol;
// cluster peers always stamp it); the zero value is the original,
// unversioned protocol, so legacy frames are byte-identical and always
// accepted. A frame carrying any other version is rejected gracefully — a
// counted result error naming both versions — instead of surfacing as an
// opaque decode or behaviour mismatch deeper in.
const ProtocolVersion = 1

// versionMismatchPrefix keys IsVersionMismatch; the server's rejection
// message starts with it.
const versionMismatchPrefix = "remote: protocol version "

// message is the wire envelope. Tenant scopes a frame to one tenant on a
// multiplexed server (empty on single-platform wires, so the original
// protocol is the zero value). "control" frames carry administrative verbs
// in Op/Args and return their payload in the result's Attrs. V is the
// protocol version (omitempty: legacy frames carry none and stay
// byte-identical).
type message struct {
	Type   string         `json:"type"`
	V      int            `json:"v,omitempty"`
	Tenant string         `json:"tenant,omitempty"`
	Op     string         `json:"op,omitempty"`
	Target string         `json:"target,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
	Name   string         `json:"name,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
	OK     bool           `json:"ok,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// errMalformed distinguishes protocol violations (oversized or undecodable
// frames) from plain transport failures.
var errMalformed = errors.New("remote: malformed frame")

// readFrame reads one newline-delimited JSON frame, skipping blank lines
// and enforcing MaxFrame. Any transport or decode error poisons the
// connection: framing cannot be trusted past a bad line, so callers drop
// the connection.
func readFrame(br *bufio.Reader) (message, error) {
	var buf []byte
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if err == bufio.ErrBufferFull {
			if len(buf) > MaxFrame {
				return message{}, fmt.Errorf("%w: exceeds %d bytes", errMalformed, MaxFrame)
			}
			continue
		}
		if err != nil {
			return message{}, err
		}
		line := bytes.TrimSpace(buf)
		if len(line) == 0 {
			buf = buf[:0]
			continue
		}
		if len(line) > MaxFrame {
			return message{}, fmt.Errorf("%w: exceeds %d bytes", errMalformed, MaxFrame)
		}
		var msg message
		if err := json.Unmarshal(line, &msg); err != nil {
			return message{}, fmt.Errorf("%w: %v", errMalformed, err)
		}
		return msg, nil
	}
}

// CallError is an error reported by the remote endpoint itself, as opposed
// to a transport failure. It is permanent: the command reached the other
// side and was rejected, so retrying cannot help.
type CallError struct{ Msg string }

// Error implements error.
func (e *CallError) Error() string { return e.Msg }

// IsVersionMismatch reports whether err is a peer's graceful rejection of
// this side's protocol version. Cluster membership uses it to count an
// incompatible peer out instead of retrying it forever.
func IsVersionMismatch(err error) bool {
	var ce *CallError
	return errors.As(err, &ce) && strings.HasPrefix(ce.Msg, versionMismatchPrefix)
}

// options collects the tunables shared by Server, Client and Conn.
type options struct {
	dialTimeout time.Duration
	ioTimeout   time.Duration
	retry       fault.Policy
	retrySet    bool
	injector    *fault.Injector
	metrics     *obs.Metrics
	protocol    int
}

func defaultOptions() options {
	return options{
		dialTimeout: 5 * time.Second,
		ioTimeout:   10 * time.Second,
	}
}

// Option customises a Server, Client or Conn.
type Option func(*options)

// WithDialTimeout bounds connection establishment (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.dialTimeout = d
		}
	}
}

// WithIOTimeout bounds one request/response round trip on the client and
// one frame write on the server (default 10s; 0 disables).
func WithIOTimeout(d time.Duration) Option {
	return func(o *options) { o.ioTimeout = d }
}

// WithRetry sets the reconnect/retry policy used by Connect (default: 5
// attempts, 25ms base backoff). It has no effect on a raw Dial client.
func WithRetry(p fault.Policy) Option {
	return func(o *options) {
		o.retry = p
		o.retrySet = true
	}
}

// WithInjector evaluates this package's fault points against in.
func WithInjector(in *fault.Injector) Option {
	return func(o *options) { o.injector = in }
}

// WithMetrics counts wire-level failures (timeouts, redials, bad frames,
// slow-subscriber drops) in the registry.
func WithMetrics(m *obs.Metrics) Option {
	return func(o *options) { o.metrics = m }
}

// WithProtocol stamps every frame a client (or Conn) sends with an
// explicit protocol version. Unversioned frames (the default) speak the
// original protocol and are always accepted; a versioned frame lets the
// server reject an incompatible peer with a counted, self-describing
// error. Cluster peers dial each other with
// WithProtocol(ProtocolVersion).
func WithProtocol(v int) Option {
	return func(o *options) { o.protocol = v }
}

// Endpoint is the platform surface the server exposes: command execution
// and event intake. runtime.Platform satisfies it via a thin adapter; any
// other command consumer works too.
type Endpoint interface {
	Execute(s *script.Script) error
	DeliverEvent(ev broker.Event) error
}

// Router resolves the tenant named in a frame to the endpoint serving it.
// A multiplexed server (NewRouterServer) consults it on every command and
// event frame, so routing decisions — including lazily rehydrating an
// evicted tenant — happen per frame, not per connection.
type Router interface {
	Route(tenant string) (Endpoint, error)
}

// Control handles the administrative verbs of a multiplexed server
// (create, evict, stat, ...). The verb vocabulary is the host's; the wire
// just carries verb + tenant + args one way and an attribute map back. A
// Router that also implements Control gets "control" frames dispatched to
// it; otherwise they are rejected.
type Control interface {
	Control(verb, tenant string, args map[string]any) (map[string]any, error)
}

// subscriber is one subscribed connection and its tenant filter ("" means
// every event).
type subscriber struct {
	enc    *json.Encoder
	tenant string
}

// Server exposes one endpoint — or a Router's worth of tenants — on a
// listener. Create with NewServer or NewRouterServer, stop with Close
// (which also waits for connection goroutines).
type Server struct {
	router   Router
	control  Control
	listener net.Listener
	opts     options

	mBadFrames  *obs.Counter
	mSlowSubs   *obs.Counter
	mVersionBad *obs.Counter

	mu    sync.Mutex
	subs  map[net.Conn]*subscriber
	conns map[net.Conn]bool
	done  chan struct{}
	wg    sync.WaitGroup
}

// singleRouter serves one endpoint to every tenant name (the pre-multiplex
// behaviour: the tenant field is ignored).
type singleRouter struct{ ep Endpoint }

func (r singleRouter) Route(string) (Endpoint, error) { return r.ep, nil }

// NewServer starts serving the endpoint on addr (e.g. "127.0.0.1:0").
func NewServer(endpoint Endpoint, addr string, opts ...Option) (*Server, error) {
	return NewRouterServer(singleRouter{endpoint}, addr, opts...)
}

// NewRouterServer starts a multiplexed server on addr: command and event
// frames are routed per tenant, and — when the router also implements
// Control — "control" frames carry the host's administrative verbs.
func NewRouterServer(router Router, addr string, opts ...Option) (*Server, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote server: %w", err)
	}
	s := &Server{
		router:      router,
		listener:    ln,
		opts:        o,
		mBadFrames:  o.metrics.Counter(obs.MRemoteBadFrames),
		mSlowSubs:   o.metrics.Counter(obs.MRemoteSlowEvents),
		mVersionBad: o.metrics.Counter(obs.MRemoteVersionBad),
		subs:        make(map[net.Conn]*subscriber),
		conns:       make(map[net.Conn]bool),
		done:        make(chan struct{}),
	}
	if ctl, ok := router.(Control); ok {
		s.control = ctl
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the listener, drops every connection and waits for the
// serving goroutines to exit.
func (s *Server) Close() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	_ = s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// PublishEvent pushes an event to every subscribed client regardless of
// tenant filter. Wire it to the platform's external event observer to
// stream top-of-stack events out. Each subscriber write is bounded by the
// server's IO timeout, so one never-reading subscriber cannot wedge the
// publisher: it is counted and dropped instead.
func (s *Server) PublishEvent(ev broker.Event) {
	s.publish(message{Type: "event", Name: ev.Name, Attrs: ev.Attrs}, false)
}

// PublishTenantEvent pushes one tenant's top-of-stack event to the
// subscribers watching that tenant (and to wildcard subscribers, who
// subscribed with no tenant).
func (s *Server) PublishTenantEvent(tenant string, ev broker.Event) {
	s.publish(message{Type: "event", Tenant: tenant, Name: ev.Name, Attrs: ev.Attrs}, true)
}

func (s *Server) publish(msg message, filter bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn, sub := range s.subs {
		if filter && sub.tenant != "" && sub.tenant != msg.Tenant {
			continue
		}
		if d := s.opts.ioTimeout; d > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(d))
		}
		if err := sub.enc.Encode(msg); err != nil {
			s.mSlowSubs.Inc()
			delete(s.subs, conn)
			_ = conn.Close()
		}
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		// A connection accepted while Close runs may miss Close's sweep
		// of s.conns; it is dropped here instead of served forever.
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		delete(s.subs, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReader(conn)
	enc := json.NewEncoder(conn)
	for {
		msg, err := readFrame(br)
		if err != nil {
			// Disconnect or garbage: framing is untrustworthy, drop the
			// connection. Protocol violations are counted.
			if errors.Is(err, errMalformed) {
				s.mBadFrames.Inc()
			}
			return
		}
		reply := message{Type: "result", OK: true}
		if msg.V != 0 && msg.V != ProtocolVersion {
			// A versioned frame from an incompatible peer: reject it
			// gracefully and keep the connection — the peer gets a
			// self-describing error instead of a dropped socket or a
			// behaviour mismatch deeper in the stack.
			s.mVersionBad.Inc()
			reply.OK = false
			reply.Error = fmt.Sprintf("%s%d not supported (this endpoint speaks %d)",
				versionMismatchPrefix, msg.V, ProtocolVersion)
		} else if err := s.opts.injector.Inject(SiteServe); err != nil {
			reply.OK = false
			reply.Error = err.Error()
		} else {
			switch msg.Type {
			case "command":
				ep, err := s.router.Route(msg.Tenant)
				if err != nil {
					reply.OK = false
					reply.Error = err.Error()
					break
				}
				cmd := script.NewCommand(msg.Op, msg.Target)
				for k, v := range msg.Args {
					cmd = cmd.WithArg(k, v)
				}
				if err := ep.Execute(script.New("remote").Append(cmd)); err != nil {
					reply.OK = false
					reply.Error = err.Error()
				}
			case "event":
				ep, err := s.router.Route(msg.Tenant)
				if err != nil {
					reply.OK = false
					reply.Error = err.Error()
					break
				}
				if err := ep.DeliverEvent(broker.Event{Name: msg.Name, Attrs: msg.Attrs}); err != nil {
					reply.OK = false
					reply.Error = err.Error()
				}
			case "control":
				if s.control == nil {
					reply.OK = false
					reply.Error = "server has no control surface"
					break
				}
				attrs, err := s.control.Control(msg.Op, msg.Tenant, msg.Args)
				if err != nil {
					reply.OK = false
					reply.Error = err.Error()
					break
				}
				reply.Attrs = attrs
			case "subscribe":
				// One subscription per connection; a repeat subscribe
				// retargets the tenant filter.
				s.mu.Lock()
				s.subs[conn] = &subscriber{enc: enc, tenant: msg.Tenant}
				s.mu.Unlock()
			default:
				reply.OK = false
				reply.Error = fmt.Sprintf("unknown message type %q", msg.Type)
			}
		}
		// The subscribe stream shares the encoder; guard against
		// interleaving with PublishEvent. The write deadline bounds the
		// time a stalled client can hold the lock.
		s.mu.Lock()
		if d := s.opts.ioTimeout; d > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(d))
		}
		err = enc.Encode(reply)
		s.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// Client talks to a remote platform over one connection. A single reader
// goroutine owns the connection's receive side from the moment the client
// is created: command/event results are matched to the one outstanding
// request (calls are serialised), and pushed events flow to the
// subscription channel. It is safe for concurrent use. A Client does not
// heal itself — once its connection dies it stays dead; use Connect for a
// self-healing handle.
type Client struct {
	conn net.Conn
	enc  *json.Encoder
	opts options

	mTimeouts *obs.Counter

	sendMu  sync.Mutex // serialises request/response pairs
	results chan message
	events  chan broker.Event
	closed  chan struct{}
	readErr error
	errOnce sync.Once
}

// Dial connects to a server, bounded by the dial timeout.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	return dialOpts(addr, o)
}

// dialOpts is Dial with resolved options; Conn redials through it.
func dialOpts(addr string, o options) (*Client, error) {
	if err := o.injector.Inject(SiteDial); err != nil {
		return nil, fmt.Errorf("remote client: dial %s: %w", addr, err)
	}
	conn, err := net.DialTimeout("tcp", addr, o.dialTimeout)
	if err != nil {
		return nil, fault.Transient(fmt.Errorf("remote client: %w", err))
	}
	c := &Client{
		conn:      conn,
		enc:       json.NewEncoder(conn),
		opts:      o,
		mTimeouts: o.metrics.Counter(obs.MRemoteTimeouts),
		results:   make(chan message, 1),
		events:    make(chan broker.Event, 16),
		closed:    make(chan struct{}),
	}
	go c.receiveLoop(bufio.NewReader(conn))
	return c, nil
}

// Close drops the connection; the reader goroutine then closes the event
// channel. Close is idempotent.
func (c *Client) Close() {
	c.errOnce.Do(func() {
		c.readErr = errors.New("remote client: closed")
		close(c.closed)
	})
	_ = c.conn.Close()
}

// Closed reports whether the client's connection is no longer usable.
func (c *Client) Closed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// receiveLoop is the sole reader: results are handed to the waiting
// request, events to the subscription channel.
func (c *Client) receiveLoop(br *bufio.Reader) {
	defer close(c.events)
	for {
		msg, err := readFrame(br)
		if err != nil {
			c.errOnce.Do(func() {
				c.readErr = fault.Transient(fmt.Errorf("remote client: receive: %w", err))
				close(c.closed)
			})
			return
		}
		switch msg.Type {
		case "result":
			select {
			case c.results <- msg:
			case <-c.closed:
				return
			}
		case "event":
			select {
			case c.events <- broker.Event{Name: msg.Name, Attrs: msg.Attrs}:
			default: // slow consumer: drop rather than stall the wire
			}
		}
	}
}

// roundTrip sends a message and waits for its result, bounded by the IO
// timeout. A timed-out round trip closes the connection: the request/
// response pairing can no longer be trusted.
func (c *Client) roundTrip(msg message) (message, error) {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	msg.V = c.opts.protocol
	select {
	case <-c.closed:
		return message{}, c.readErr
	default:
	}
	if err := c.opts.injector.Inject(SiteSend); err != nil {
		return message{}, fmt.Errorf("remote client: send: %w", err)
	}
	if d := c.opts.ioTimeout; d > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := c.enc.Encode(msg); err != nil {
		return message{}, fault.Transient(fmt.Errorf("remote client: send: %w", err))
	}
	var timeout <-chan time.Time
	if d := c.opts.ioTimeout; d > 0 {
		tm := time.NewTimer(d)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case reply := <-c.results:
		if !reply.OK {
			return reply, &CallError{Msg: reply.Error}
		}
		return reply, nil
	case <-timeout:
		c.mTimeouts.Inc()
		c.Close()
		return message{}, fmt.Errorf("remote client: round trip: %w after %v", fault.ErrTimeout, c.opts.ioTimeout)
	case <-c.closed:
		return message{}, c.readErr
	}
}

// Call dispatches one command to the remote platform's Controller. It
// implements the bridge.Dispatch shape, so a remote platform can be a
// bridge target.
func (c *Client) Call(cmd script.Command) error {
	_, err := c.roundTrip(message{Type: "command", Op: cmd.Op, Target: cmd.Target, Args: cmd.Args})
	return err
}

// PostEvent injects an event into the remote platform's Broker layer.
func (c *Client) PostEvent(ev broker.Event) error {
	_, err := c.roundTrip(message{Type: "event", Name: ev.Name, Attrs: ev.Attrs})
	return err
}

// Subscribe asks the server to stream top-of-stack events and returns the
// channel they arrive on. The channel closes when the connection dies or
// Close is called. Subscribing more than once returns the same channel.
func (c *Client) Subscribe() (<-chan broker.Event, error) {
	if _, err := c.roundTrip(message{Type: "subscribe"}); err != nil {
		return nil, err
	}
	return c.events, nil
}

// Control sends an administrative verb to a multiplexed server and returns
// the attribute map the host's Control handler produced. Verbs are
// host-defined (mddsm-serve: create, evict, stat, snapshot, tenants, ...).
func (c *Client) Control(verb, tenant string, args map[string]any) (map[string]any, error) {
	reply, err := c.roundTrip(message{Type: "control", Op: verb, Tenant: tenant, Args: args})
	if err != nil {
		return nil, err
	}
	return reply.Attrs, nil
}

// Session scopes a client to one tenant of a multiplexed server: the same
// wire verbs, each frame stamped with the tenant name. Sessions share the
// client's connection (and its one-outstanding-request discipline), so any
// number of them can multiplex over a single Dial.
type Session struct {
	c      *Client
	tenant string
}

// Session returns a handle scoped to the named tenant.
func (c *Client) Session(tenant string) *Session {
	return &Session{c: c, tenant: tenant}
}

// Call dispatches one command to the tenant's Controller.
func (s *Session) Call(cmd script.Command) error {
	_, err := s.c.roundTrip(message{Type: "command", Tenant: s.tenant, Op: cmd.Op, Target: cmd.Target, Args: cmd.Args})
	return err
}

// PostEvent injects an event into the tenant's Broker layer.
func (s *Session) PostEvent(ev broker.Event) error {
	_, err := s.c.roundTrip(message{Type: "event", Tenant: s.tenant, Name: ev.Name, Attrs: ev.Attrs})
	return err
}

// Subscribe retargets the connection's event stream to this tenant's
// top-of-stack events and returns the shared channel. One connection holds
// one subscription; the latest Subscribe wins.
func (s *Session) Subscribe() (<-chan broker.Event, error) {
	if _, err := s.c.roundTrip(message{Type: "subscribe", Tenant: s.tenant}); err != nil {
		return nil, err
	}
	return s.c.events, nil
}

// ---------------------------------------------------------------------------
// Conn: self-healing client
// ---------------------------------------------------------------------------

// DefaultRetry is Connect's reconnect/retry policy when none is given.
var DefaultRetry = fault.Policy{
	MaxAttempts: 5,
	BaseDelay:   25 * time.Millisecond,
	MaxDelay:    time.Second,
	Multiplier:  2,
	Jitter:      0.2,
}

// ErrConnClosed reports use of a Conn after Close.
var ErrConnClosed = errors.New("remote conn: closed")

// Conn is a self-healing remote handle: Connect dials with backoff, Call
// and PostEvent retry transient transport failures — MD-DSM commands are
// declarative property assignments, hence idempotent and safe to replay —
// and a dead connection is redialled transparently, resubscribing when the
// Conn is subscribed. Operations are serialised; endpoint rejections
// (CallError) are never retried. The subscription channel survives
// reconnects, though events published while disconnected are lost.
type Conn struct {
	addr    string
	opts    options
	retryer *fault.Retryer

	mRedials *obs.Counter

	mu         sync.Mutex
	cli        *Client
	subscribed bool
	closed     bool
	events     chan broker.Event
	fwd        sync.WaitGroup
}

// Connect dials addr with backoff and returns a self-healing handle.
func Connect(addr string, opts ...Option) (*Conn, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	if !o.retrySet {
		o.retry = DefaultRetry
	}
	c := &Conn{
		addr:     addr,
		opts:     o,
		retryer:  fault.NewRetryer(o.retry, fault.RetryMetrics(o.metrics)),
		mRedials: o.metrics.Counter(obs.MRemoteRedials),
		events:   make(chan broker.Event, 64),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.retryer.Do(c.ensureLocked); err != nil {
		return nil, err
	}
	return c, nil
}

// ensureLocked makes sure a live client exists, redialling if needed
// (c.mu held).
func (c *Conn) ensureLocked() error {
	if c.cli != nil && !c.cli.Closed() {
		return nil
	}
	if c.cli != nil {
		c.mRedials.Inc()
	}
	cli, err := dialOpts(c.addr, c.opts)
	if err != nil {
		return err
	}
	if c.subscribed {
		sub, err := cli.Subscribe()
		if err != nil {
			cli.Close()
			return err
		}
		c.forward(sub)
	}
	c.cli = cli
	return nil
}

// forward pumps one inner client's event stream into the Conn's persistent
// channel until the inner channel closes (connection death) — then, on a
// subscribed Conn that was not deliberately closed, heals the subscription
// proactively instead of waiting for the next Call/PostEvent: without
// this, a Conn used only as an event sink would sit on a silently severed
// stream until some unrelated operation happened to redial.
func (c *Conn) forward(sub <-chan broker.Event) {
	c.fwd.Add(1)
	go func() {
		defer c.fwd.Done()
		for ev := range sub {
			select {
			case c.events <- ev:
			default: // slow consumer: drop rather than stall
			}
		}
		c.resubscribe()
	}()
}

// resubscribe re-establishes a dropped connection's subscription with the
// Conn's retry policy. It gives up (leaving the next operation to heal)
// when the policy is exhausted; it does nothing when the Conn is closed,
// never subscribed, or already healed by a concurrent operation.
func (c *Conn) resubscribe() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !c.subscribed {
		return
	}
	if c.cli != nil && !c.cli.Closed() {
		return // a concurrent op already redialled (and resubscribed)
	}
	_ = c.retryer.Do(c.ensureLocked)
}

// do runs one operation against a live client, retrying transient failures
// with reconnection between attempts.
func (c *Conn) do(fn func(*Client) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	return c.retryer.Do(func() error {
		if err := c.ensureLocked(); err != nil {
			return err
		}
		err := fn(c.cli)
		if err != nil && fault.IsTransient(err) {
			c.cli.Close() // force a redial on the next attempt
		}
		return err
	})
}

// Call dispatches one command, retrying transient transport failures.
func (c *Conn) Call(cmd script.Command) error {
	return c.do(func(cli *Client) error { return cli.Call(cmd) })
}

// PostEvent injects an event into the remote Broker layer, retrying
// transient transport failures.
func (c *Conn) PostEvent(ev broker.Event) error {
	return c.do(func(cli *Client) error { return cli.PostEvent(ev) })
}

// Control sends an administrative verb to a multiplexed server, retrying
// transient transport failures. Like commands, the caller's verbs must be
// idempotent to be safe to replay — the cluster verbs (join, heartbeat,
// sequence-deduped forwards, epoch-guarded migrations) are designed so.
func (c *Conn) Control(verb, tenant string, args map[string]any) (map[string]any, error) {
	var attrs map[string]any
	err := c.do(func(cli *Client) error {
		var err error
		attrs, err = cli.Control(verb, tenant, args)
		return err
	})
	return attrs, err
}

// Subscribe returns the Conn's persistent event channel, subscribing the
// current connection (and every future reconnection) to the server's
// top-of-stack stream. The channel closes only when the Conn is closed.
func (c *Conn) Subscribe() (<-chan broker.Event, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrConnClosed
	}
	if c.subscribed {
		return c.events, nil
	}
	err := c.retryer.Do(func() error {
		if err := c.ensureLocked(); err != nil {
			return err
		}
		sub, err := c.cli.Subscribe()
		if err != nil {
			if fault.IsTransient(err) {
				c.cli.Close()
			}
			return err
		}
		c.forward(sub)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.subscribed = true
	return c.events, nil
}

// Close tears the connection down, waits for the event forwarder and
// closes the subscription channel. Close is idempotent.
func (c *Conn) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	cli := c.cli
	c.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
	c.fwd.Wait()
	close(c.events)
}
