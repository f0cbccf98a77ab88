package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// ClientOptions tunes a wire Client. The zero value is usable.
type ClientOptions struct {
	// Conns is the pooled connection count (default 2). Requests
	// round-robin across connections and pipeline freely within one.
	Conns int
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// ServerError is a typed failure reply from the wire server. Status is
// the exact HTTP status the service's error mapper assigns the same
// failure, so callers translate wire and HTTP errors through one
// table; RetryAfter carries the server's pacing hint in seconds (0 if
// none).
type ServerError struct {
	Status     int
	Message    string
	RetryAfter int
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("wire: server status %d: %s", e.Status, e.Message)
}

// Client speaks the wire protocol over a small pool of persistent
// connections. Calls from any number of goroutines pipeline onto the
// connections; one reader goroutine per connection completes them in
// whatever order the server replies, matched by request ID. The warm
// PredictInto path performs zero allocations.
type Client struct {
	network string
	addr    string
	opts    ClientOptions

	reqID atomic.Uint64
	rr    atomic.Uint64

	callPool sync.Pool

	mu     sync.Mutex
	conns  []*clientConn
	closed bool
}

// Dial creates a client for the wire server at addr on network ("tcp"
// or "unix"). Connections are established lazily and redialed
// transparently after transport failures.
func Dial(network, addr string, opts ClientOptions) *Client {
	if opts.Conns <= 0 {
		opts.Conns = 2
	}
	c := &Client{network: network, addr: addr, opts: opts, conns: make([]*clientConn, opts.Conns)}
	c.callPool.New = func() any { return &call{done: make(chan struct{}, 1)} }
	return c
}

// Close tears down every pooled connection. In-flight calls fail with
// a transport error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := append([]*clientConn(nil), c.conns...)
	c.mu.Unlock()
	for _, cc := range conns {
		if cc != nil {
			cc.fail(fmt.Errorf("%w: client closed", ErrTransport))
		}
	}
	return nil
}

// call is one in-flight request, pooled and reused. The reader
// goroutine decodes the reply directly into it before signaling done.
type call struct {
	done chan struct{} // buffered(1); one signal per use

	// Reply destinations, populated by the connection reader:
	preds  []service.Prediction // one[:0] in, decoded predictions out
	probs  []float64            // caller scratch in, decoded values out
	one    [1]service.Prediction
	js     []byte
	srvErr *ServerError
	err    error
}

func (ca *call) reset() {
	ca.one[0] = service.Prediction{}
	ca.preds = nil
	ca.probs = nil
	ca.js = nil
	ca.srvErr = nil
	ca.err = nil
}

// clientConn is one pooled connection with its reader goroutine.
type clientConn struct {
	nc net.Conn

	wmu  sync.Mutex
	wbuf []byte

	pmu     sync.Mutex
	pending map[uint64]*call
	err     error // terminal transport error; set once

	down atomic.Bool

	// Reply-name intern cache (reader-goroutine-only): the model name
	// repeats on every reply, so it is copied once per distinct name,
	// not once per prediction.
	nameB []byte
	name  string
}

// conn returns the i-th pooled connection, dialing it if absent or
// down.
func (c *Client) conn(i int) (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("%w: client closed", ErrTransport)
	}
	cc := c.conns[i]
	if cc != nil && !cc.down.Load() {
		return cc, nil
	}
	nc, err := net.DialTimeout(c.network, c.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s %s: %v", ErrTransport, c.network, c.addr, err)
	}
	cc = &clientConn{nc: nc, pending: map[uint64]*call{}}
	c.conns[i] = cc
	go cc.readLoop()
	return cc, nil
}

// fail terminates the connection: every pending call completes with
// err and later use redials.
func (cc *clientConn) fail(err error) {
	cc.pmu.Lock()
	if cc.err == nil {
		cc.err = err
		cc.down.Store(true)
		cc.nc.Close()
		for id, ca := range cc.pending {
			delete(cc.pending, id)
			ca.err = err
			ca.done <- struct{}{}
		}
	}
	cc.pmu.Unlock()
}

// readLoop demultiplexes reply frames onto pending calls by request
// ID. Frame corruption or connection loss fails the connection and
// every call pipelined on it.
func (cc *clientConn) readLoop() {
	fr := frameReader{r: cc.nc, maxPayload: DefaultMaxPayload}
	for {
		h, payload, err := fr.next()
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("%w: connection closed by server", ErrTransport)
			} else {
				err = fmt.Errorf("%w: %v", ErrTransport, err)
			}
			cc.fail(err)
			return
		}
		cc.pmu.Lock()
		ca, ok := cc.pending[h.ID]
		if ok {
			delete(cc.pending, h.ID)
		}
		cc.pmu.Unlock()
		if !ok {
			// Reply to an abandoned (deadline-expired) request.
			continue
		}
		cc.decodeReply(ca, h.Type, payload)
		ca.done <- struct{}{}
	}
}

// intern returns b as a string, reusing the previous copy when the
// bytes match (reader-goroutine-only state).
func (cc *clientConn) intern(b []byte) string {
	if !bytes.Equal(b, cc.nameB) {
		cc.nameB = append(cc.nameB[:0], b...)
		cc.name = string(b)
	}
	return cc.name
}

// decodeReply fills ca from one reply frame. It runs on the reader
// goroutine because the payload aliases the reader's reused buffer.
func (cc *clientConn) decodeReply(ca *call, t MsgType, payload []byte) {
	switch t {
	case MsgPredictReply:
		ca.preds, ca.probs, ca.err = decodePredictReply(payload, ca.preds, ca.probs, cc.intern)
	case MsgJSON:
		ca.js = append([]byte(nil), payload...)
	case MsgError:
		status, retryAfter, msg, err := decodeErrorReply(payload)
		if err != nil {
			ca.err = err
			return
		}
		ca.srvErr = &ServerError{Status: status, Message: msg, RetryAfter: retryAfter}
	default:
		ca.err = fmt.Errorf("%w: unexpected reply type %s", ErrFormat, t)
	}
}

// exchange is one request/reply: it sends a t frame whose size-byte
// payload enc appends (given the deadline_ms service.DeadlineMs
// derives from ctx) and waits for the reply, decoded into a pooled
// call. On success the caller copies its result out of the call and
// recycles it; every failure — a payload no frame can carry, expired
// ctx, dead transport, typed *ServerError reply — comes back as the
// error with the call already recycled. enc is only called, never
// retained, so callers' closures stay on their stacks.
func (c *Client) exchange(ctx context.Context, t MsgType, size int, probs []float64, enc func(dst []byte, deadlineMs uint32) []byte) (*call, error) {
	if size > DefaultMaxPayload {
		// The server would drop the connection on this frame: refuse it
		// here, with the status HTTP gives a body past the same cap.
		return nil, &ServerError{Status: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("%d-byte payload exceeds the %d-byte frame limit", size, DefaultMaxPayload)}
	}
	dl, err := service.DeadlineMs(ctx)
	if err != nil {
		return nil, err
	}
	ca := c.callPool.Get().(*call)
	ca.preds, ca.probs = ca.one[:0], probs
	err = c.roundTrip(ctx, t, ca, dl, enc)
	if err == nil {
		err = ca.err
	}
	if err == nil && ca.srvErr != nil {
		err = ca.srvErr
	}
	if err != nil {
		c.recycle(ca)
		return nil, err
	}
	return ca, nil
}

// recycle returns a quiescent call to the pool.
func (c *Client) recycle(ca *call) {
	ca.reset()
	c.callPool.Put(ca)
}

// roundTrip registers ca under a fresh request ID, writes one frame
// (header built in the connection's reused write buffer, payload
// appended by enc), and waits for the reader or ctx.
func (c *Client) roundTrip(ctx context.Context, t MsgType, ca *call, dl uint32, enc func(dst []byte, deadlineMs uint32) []byte) error {
	cc, err := c.conn(int(c.rr.Add(1) % uint64(c.opts.Conns)))
	if err != nil {
		return err
	}
	id := c.reqID.Add(1)

	// Register before writing so a reply can never race registration.
	cc.pmu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.pmu.Unlock()
		return err
	}
	cc.pending[id] = ca
	cc.pmu.Unlock()

	cc.wmu.Lock()
	buf := beginFrame(cc.wbuf[:0], t, id)
	buf = enc(buf, dl)
	buf = endFrame(buf, 0)
	cc.wbuf = buf
	_, werr := cc.nc.Write(buf)
	cc.wmu.Unlock()
	if werr != nil {
		cc.fail(fmt.Errorf("%w: write: %v", ErrTransport, werr))
		// fail signaled ca.done (or another goroutine's fail did);
		// fall through to the wait, which returns immediately.
	}

	select {
	case <-ca.done:
		return nil
	case <-ctx.Done():
		// Abandon: deregister so the reader skips the eventual reply.
		// If the reader already claimed the call it is mid-decode —
		// wait for its signal so the call is quiescent (and poolable)
		// before returning.
		cc.pmu.Lock()
		_, mine := cc.pending[id]
		if mine {
			delete(cc.pending, id)
		}
		cc.pmu.Unlock()
		if !mine {
			<-ca.done
		}
		return ctx.Err()
	}
}

// PredictInto requests one prediction, decoding class probabilities
// into probs (grown only when capacity is insufficient). The returned
// prediction's Probs field aliases the returned slice; pass it back in
// on the next call for an allocation-free warm path.
func (c *Client) PredictInto(ctx context.Context, model, stmt string, probs []float64) (service.Prediction, []float64, error) {
	ca, err := c.predict(ctx, model, []string{stmt}, probs)
	if err != nil {
		return service.Prediction{}, probs, err
	}
	pr, out := ca.preds[0], ca.probs
	c.recycle(ca)
	return pr, out, nil
}

// PredictBatch requests predictions for every statement in one frame;
// the server fans the batch across its replica pool.
func (c *Client) PredictBatch(ctx context.Context, model string, stmts []string) ([]service.Prediction, error) {
	ca, err := c.predict(ctx, model, stmts, nil)
	if err != nil {
		return nil, err
	}
	preds := ca.preds
	if len(preds) == 1 {
		// Decoded into the call's own array, which goes back to the pool.
		preds = []service.Prediction{preds[0]}
	}
	c.recycle(ca)
	return preds, nil
}

// predict exchanges one MsgPredict carrying stmts. A model name longer
// than the frame's u16 length prefix is refused before any I/O as the
// 400 it is, so it cannot wrap into a different request.
func (c *Client) predict(ctx context.Context, model string, stmts []string, probs []float64) (*call, error) {
	if len(model) > math.MaxUint16 {
		return nil, &ServerError{Status: http.StatusBadRequest,
			Message: fmt.Sprintf("%d-byte model name exceeds the frame's %d-byte limit", len(model), math.MaxUint16)}
	}
	ca, err := c.exchange(ctx, MsgPredict, predictReqLen(model, stmts), probs, func(dst []byte, dl uint32) []byte {
		return appendPredictReq(dst, model, stmts, dl)
	})
	if err != nil {
		return nil, err
	}
	if len(ca.preds) != len(stmts) {
		err = fmt.Errorf("%w: %d predictions for %d statements", ErrFormat, len(ca.preds), len(stmts))
		c.recycle(ca)
		return nil, err
	}
	return ca, nil
}

// Call performs a control-plane request: reqJSON is op's JSON body
// (nil for the ops that take none) and the reply document is returned.
// Control-plane requests rely on ctx alone; no deadline hint is sent.
// Failures reported by the server are *ServerError.
func (c *Client) Call(ctx context.Context, op service.Op, reqJSON []byte) ([]byte, error) {
	ca, err := c.exchange(ctx, MsgControl, 1+len(reqJSON), nil, func(dst []byte, _ uint32) []byte {
		return appendControlReq(dst, op, reqJSON)
	})
	if err != nil {
		return nil, err
	}
	js := ca.js
	c.recycle(ca)
	return js, nil
}
