package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"masm/internal/obs"
	"masm/internal/proto"
	"masm/internal/storage"
)

// span is one timed interval of the traced run, on the wall clock, in
// nanoseconds since the tracer started. Req names the client request it
// belongs to (0: none, e.g. device I/O or engine lifecycle events); Parent
// is the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

// tracer records spans from the benchmark's own wrappers around the
// program's public seams: the client's net.Conn, the server's listener,
// the storage backends and the engine's trace sink. Spans stay in memory
// and are written out once the run ends. It records only while active,
// i.e. during the timed window.
type tracer struct {
	t0     time.Time
	active atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	slots map[string]*reqSlot // client local address -> its request slot
	migs  map[string]int64    // table -> start of its running migration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), slots: make(map[string]*reqSlot), migs: make(map[string]int64)}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) add(s span) {
	s.ID = tr.nextID.Add(1)
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// reqSlot holds the request in flight on one closed-loop connection; both
// ends of the connection attribute their socket calls to it.
type reqSlot struct {
	req atomic.Int64
}

// beginReq opens a request on slot and returns its id (0 when inactive).
func (tr *tracer) beginReq(slot *reqSlot) int64 {
	if tr == nil || !tr.active.Load() {
		return 0
	}
	id := tr.nextID.Add(1)
	slot.req.Store(id)
	return id
}

// endReq records the client span of request id, started at start.
func (tr *tracer) endReq(slot *reqSlot, id int64, name string, start time.Time) {
	if id == 0 {
		return
	}
	end := tr.now()
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{ID: id, Name: name, Start: int64(start.Sub(tr.t0)), End: end, Req: id})
	tr.mu.Unlock()
	slot.req.CompareAndSwap(id, 0)
}

// dial opens a client connection whose socket calls are traced.
func (tr *tracer) dial(addr string) (*proto.Client, *reqSlot, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	slot := &reqSlot{}
	tr.mu.Lock()
	tr.slots[nc.LocalAddr().String()] = slot
	tr.mu.Unlock()
	tc := &tracedConn{Conn: nc, tr: tr, read: "net.client.read", write: "net.client.write"}
	tc.slot.Store(slot)
	c, err := proto.NewClient(tc)
	if err != nil {
		return nil, nil, err
	}
	return c, slot, nil
}

// tracedConn times every Read and Write of a connection and attributes
// it to the request in flight when the call returns.
type tracedConn struct {
	net.Conn
	tr          *tracer
	slot        atomic.Pointer[reqSlot] // nil on the server side until the peer is found
	read, write string
}

func (c *tracedConn) peer() *reqSlot {
	if s := c.slot.Load(); s != nil {
		return s
	}
	c.tr.mu.Lock()
	s := c.tr.slots[c.RemoteAddr().String()]
	c.tr.mu.Unlock()
	if s != nil {
		c.slot.Store(s)
	}
	return s
}

func (c *tracedConn) record(name string, start int64, n int) {
	var req int64
	if s := c.peer(); s != nil {
		req = s.req.Load()
	}
	c.tr.add(span{Name: name, Start: start, End: c.tr.now(), Parent: req, Req: req, Bytes: n})
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if !c.tr.active.Load() {
		return c.Conn.Read(p)
	}
	start := c.tr.now()
	n, err := c.Conn.Read(p)
	c.record(c.read, start, n)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.tr.active.Load() {
		return c.Conn.Write(p)
	}
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	c.record(c.write, start, n)
	return n, err
}

// tracedListener hands the server traced connections. A server
// connection's slot is its client's, found by address on first use: the
// server may accept before the dialer has registered the slot.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: nc, tr: l.tr, read: "net.server.read", write: "net.server.write"}, nil
}

// tracedBackend times every I/O call on one of the engine's files. It
// does not implement storage.Discarder itself; wrapBackend adds that only
// when the wrapped backend has it, so tracing never changes which storage
// path the engine takes.
type tracedBackend struct {
	storage.Backend
	tr                *tracer
	read, write, sync string
}

type tracedDiscardBackend struct {
	*tracedBackend
	storage.Discarder
}

func (tr *tracer) wrapBackend(name string, be storage.Backend) storage.Backend {
	tb := &tracedBackend{Backend: be, tr: tr,
		read: "dev." + name + ".read", write: "dev." + name + ".write", sync: "dev." + name + ".sync"}
	if d, ok := be.(storage.Discarder); ok {
		return tracedDiscardBackend{tb, d}
	}
	return tb
}

func (b *tracedBackend) timed(name string, n int, op func() error) error {
	if !b.tr.active.Load() {
		return op()
	}
	start := b.tr.now()
	err := op()
	b.tr.add(span{Name: name, Start: start, End: b.tr.now(), Bytes: n})
	return err
}

func (b *tracedBackend) ReadAt(p []byte, off int64) error {
	return b.timed(b.read, len(p), func() error { return b.Backend.ReadAt(p, off) })
}

func (b *tracedBackend) WriteAt(p []byte, off int64) error {
	return b.timed(b.write, len(p), func() error { return b.Backend.WriteAt(p, off) })
}

func (b *tracedBackend) Sync() error {
	return b.timed(b.sync, 0, b.Backend.Sync)
}

// Emit receives the engine's lifecycle events (Engine.SetTraceSink). A
// migration becomes one span from its begin to its end event; a flush or
// merge reports only its end, so it becomes a point span.
func (tr *tracer) Emit(e obs.Event) {
	if !tr.active.Load() {
		return
	}
	now := tr.now()
	switch {
	case e.Op == "migration" && e.Phase == "begin":
		tr.mu.Lock()
		tr.migs[e.Table] = now
		tr.mu.Unlock()
	case e.Op == "migration" && e.Phase == "end":
		tr.mu.Lock()
		start, ok := tr.migs[e.Table]
		delete(tr.migs, e.Table)
		tr.mu.Unlock()
		if ok {
			tr.add(span{Name: "engine.migration", Start: start, End: now})
		}
	case (e.Op == "flush" || e.Op == "merge") && e.Phase == "end":
		tr.add(span{Name: "engine." + e.Op, Start: now, End: now})
	}
}

// writeSpans stores the recorded spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
