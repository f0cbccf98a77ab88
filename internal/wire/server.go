package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
	"unsafe"

	"repro/internal/service"
)

// handlers is the number of persistent request-handler goroutines
// shared by all connections. Requests pipelined on one connection
// execute concurrently across handlers, which is what makes
// out-of-order replies worth having.
const handlers = 8

// ServerOptions tunes a wire Server. The zero value is usable.
type ServerOptions struct {
	// Logf, when set, receives connection-level protocol failures
	// (frame corruption, write errors). Per-request failures are
	// replied to the client, not logged.
	Logf func(format string, args ...any)
}

// Server serves the wire protocol over any net.Listener (TCP, unix
// sockets) against the same service.Service the HTTP handler mounts:
// identical registry, admission quotas, typed errors, and panic
// isolation — only the encoding differs.
//
// Each connection gets a read loop that decodes frames into pooled
// jobs; a fixed pool of handler goroutines executes them and writes
// replies directly, so responses leave in completion order (tagged by
// request ID), not arrival order. The warm predict path allocates
// nothing on either side of the socket.
type Server struct {
	svc  *service.Service
	opts ServerOptions

	jobs chan *job
	pool sync.Pool // *job

	// baseCtx parents every request context; canceled on forced
	// shutdown so in-flight predictions unwind promptly.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	handlerWG sync.WaitGroup
	connWG    sync.WaitGroup

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	draining  bool
	started   bool
}

// NewServer builds a wire server over svc.
func NewServer(svc *service.Service, opts ServerOptions) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		svc:       svc,
		opts:      opts,
		jobs:      make(chan *job),
		baseCtx:   ctx,
		cancelAll: cancel,
		listeners: map[net.Listener]struct{}{},
		conns:     map[*serverConn]struct{}{},
	}
	s.pool.New = func() any { return &job{} }
	return s
}

// Serve accepts connections on ln until the listener fails or the
// server is shut down. It returns nil after a Shutdown, mirroring the
// net/http contract. Serve may be called concurrently on several
// listeners (one TCP, one unix socket).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server is shut down")
	}
	s.listeners[ln] = struct{}{}
	if !s.started {
		s.started = true
		s.handlerWG.Add(handlers)
		for i := 0; i < handlers; i++ {
			go s.handler()
		}
	}
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			delete(s.listeners, ln)
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		c := &serverConn{nc: nc}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// Shutdown gracefully drains the server: listeners close, per-
// connection read loops stop (a request caught mid-frame on the socket
// is lost — its client sees a transport error and retries), and every
// request already accepted runs to completion and gets its reply
// before the connection closes. If ctx expires first, in-flight work
// is canceled and connections are torn down hard.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	started := s.started
	for ln := range s.listeners {
		ln.Close()
	}
	now := time.Now()
	for c := range s.conns {
		c.nc.SetReadDeadline(now)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(s.jobs)
		if started {
			s.handlerWG.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// serverConn is one accepted connection. Replies from concurrent
// handlers serialize on wmu; inflight tracks jobs between decode and
// reply so the read loop can drain them before closing the socket.
type serverConn struct {
	nc       net.Conn
	wmu      sync.Mutex
	broken   bool
	inflight sync.WaitGroup
}

// write sends one complete frame. A write failure marks the
// connection broken: later replies are dropped (their requests are
// lost with the connection anyway) and the read loop shuts the socket.
func (c *serverConn) write(frame []byte) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.broken {
		return
	}
	if _, err := c.nc.Write(frame); err != nil {
		c.broken = true
	}
}

// serveConn runs one connection's read loop: decode a frame, copy its
// payload into a pooled job, hand it to the handler pool. Frame-level
// corruption (bad magic, unknown version or type, oversize claim)
// means the stream can no longer be trusted to be frame-aligned, so
// the connection closes; a well-framed but malformed payload gets a
// typed error reply and the connection lives on.
func (s *Server) serveConn(c *serverConn) {
	defer s.connWG.Done()
	fr := frameReader{r: c.nc, maxPayload: DefaultMaxPayload}
	for {
		h, payload, err := fr.next()
		if err != nil {
			if err != io.EOF && !s.isDraining() && s.opts.Logf != nil {
				s.opts.Logf("wire: %s: %v", c.nc.RemoteAddr(), err)
			}
			break
		}
		if h.Type >= MsgError {
			if s.opts.Logf != nil {
				s.opts.Logf("wire: %s: reply type %s in request", c.nc.RemoteAddr(), h.Type)
			}
			break
		}
		j := s.pool.Get().(*job)
		j.conn, j.typ, j.id = c, h.Type, h.ID
		j.in = append(j.in[:0], payload...)
		c.inflight.Add(1)
		s.jobs <- j
	}
	// Handlers still hold jobs from this connection; let them reply
	// before the socket goes away.
	c.inflight.Wait()
	c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// job carries one decoded request through the handler pool. Its
// buffers (payload copy, reply frame, probability and statement
// scratch) are reused across requests via sync.Pool, which is what
// keeps the warm predict path allocation-free.
type job struct {
	conn *serverConn
	typ  MsgType
	id   uint64
	in   []byte
	out  []byte
	// one holds a single statement's prediction for the reply encoder.
	one [1]service.Prediction
	// probs is the PredictInto scratch; the reply encoder copies the
	// values out before the job is recycled.
	probs []float64
	// stmts holds statement views into in.
	stmts [][]byte
	// stmtStrs holds the unsafe string headers over stmts for the
	// service call.
	stmtStrs []string
}

// handler executes jobs until the jobs channel closes at shutdown.
func (s *Server) handler() {
	defer s.handlerWG.Done()
	for j := range s.jobs {
		s.handle(j)
		c := j.conn
		j.conn = nil
		s.pool.Put(j)
		c.inflight.Done()
	}
}

// handle runs one request with net/http-equivalent panic isolation: a
// handler panic fails that request with a 500-coded error frame and
// the server keeps serving.
func (s *Server) handle(j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.replyError(j, http.StatusInternalServerError, fmt.Errorf("wire: handler panic: %v", r))
		}
	}()
	switch j.typ {
	case MsgPredict:
		s.handlePredict(j)
	case MsgControl:
		s.handleControl(j)
	}
}

// bstr views b as a string without copying. The view is passed to
// service calls that do not retain the statement past the request
// (serve clears the replica's arrays before the replica goes back, on
// the calling goroutine), and the backing job
// buffer is not recycled until the reply is written, so the view
// cannot outlive its bytes.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// handlePredict runs a MsgPredict. The statement count picks the
// service call: one statement takes Service.PredictInto, the
// allocation-free path, and more take PredictBatch, which works them
// across the replica pool. The two answer bit-identically.
func (s *Server) handlePredict(j *job) {
	model, deadlineMs, stmts, err := decodePredictReq(j.in, j.stmts)
	j.stmts = stmts[:0]
	if err != nil {
		s.replyError(j, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := service.WithDeadlineMs(s.baseCtx, int64(deadlineMs))
	prs := j.one[:]
	if len(stmts) == 1 {
		prs[0], err = s.svc.PredictInto(ctx, bstr(model), bstr(stmts[0]), j.probs)
		if prs[0].Probs != nil {
			j.probs = prs[0].Probs // keep the (possibly grown) scratch
		}
	} else {
		strs := j.stmtStrs[:0]
		for _, b := range stmts {
			strs = append(strs, bstr(b))
		}
		j.stmtStrs = strs
		prs, err = s.svc.PredictBatch(ctx, bstr(model), strs)
	}
	cancel()
	if err != nil {
		s.replyError(j, service.StatusFor(err), err)
		return
	}
	j.out = beginFrame(j.out[:0], MsgPredictReply, j.id)
	j.out = appendPredictReply(j.out, prs)
	j.conn.write(endFrame(j.out, 0))
}

// handleControl runs a MsgControl through the service's op table, the
// one HTTP routes to (cold path; allocation is fine here). An op byte
// the table does not know is Control's 400, like any bad request.
func (s *Server) handleControl(j *job) {
	op, body, err := decodeControlReq(j.in)
	if err != nil {
		s.replyError(j, http.StatusBadRequest, err)
		return
	}
	reply, err := s.svc.Control(s.baseCtx, op, body)
	if err != nil {
		s.replyError(j, service.StatusFor(err), err)
		return
	}
	js, err := json.Marshal(reply)
	if err != nil {
		s.replyError(j, http.StatusInternalServerError, err)
		return
	}
	j.out = beginFrame(j.out[:0], MsgJSON, j.id)
	j.out = append(j.out, js...)
	j.conn.write(endFrame(j.out, 0))
}

// replyError sends a typed error frame carrying the same HTTP status
// service.StatusFor assigns and the server's Retry-After pacing hint
// for overload/unavailable, so client-side sentinel mapping, retry,
// and breaker behavior are identical across transports.
func (s *Server) replyError(j *job, status int, err error) {
	j.out = beginFrame(j.out[:0], MsgError, j.id)
	j.out = appendErrorReply(j.out, status, service.RetryAfter(status), err.Error())
	j.conn.write(endFrame(j.out, 0))
}
