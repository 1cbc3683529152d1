package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
	"semandaq/internal/wal"
)

// Lanes name where a span runs. A span's parent is the span open on its
// parent lane when it begins. The traced run drives one client, so each
// lane holds at most one open span and every journal or fan-out span
// sits inside exactly one request.
const (
	laneClient  = "client"
	laneFront   = "front" // the public handler: single server or coordinator
	laneJournal = "journal"
)

func laneFanout(w int) string { return "fanout/" + strconv.Itoa(w) }
func laneWorker(w int) string { return "worker/" + strconv.Itoa(w) }

// span is one timed call at a layer boundary.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Req    int           `json:"req"`    // ID of the enclosing client span, -1 outside requests
	Name   string        `json:"name"`
	Lane   string        `json:"lane"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int           `json:"bytes,omitempty"` // reply body size, handler spans
	// ElapsedMS is the program's own elapsed_ms from the reply (client
	// spans of detect and dc_detect).
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Boundary is the reply's residual.boundary_fraction (cluster detect).
	Boundary float64 `json:"boundary,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder,
// or one not switched on, records nothing.
type recorder struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[string]int
	req   int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[string]int{}, req: -1}
}

func (r *recorder) begin(name, lane, parentLane string) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	parent, ok := r.open[parentLane]
	if !ok {
		parent = -1
	}
	id := len(r.spans)
	if lane == laneClient {
		r.req = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Name: name, Lane: lane, Start: now, End: -1})
	r.open[lane] = id
	return id
}

func (r *recorder) end(id, bytes int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.End, s.Bytes = now, bytes
	if r.open[s.Lane] == id {
		delete(r.open, s.Lane)
	}
	if s.Lane == laneClient {
		r.req = -1
	}
}

// annotate attaches reply-derived values to a finished client span.
func (r *recorder) annotate(id int, elapsedMS, boundary float64) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].ElapsedMS, r.spans[id].Boundary = elapsedMS, boundary
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedHandler times a program handler and counts its reply bytes.
type tracedHandler struct {
	rec          *recorder
	lane, parent string
	next         http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.rec.begin(r.URL.Path, h.lane, h.parent)
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.rec.end(id, cw.n)
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// tracedJournal times every journal call the engine makes. It forwards
// engine.RegistryWriter too, so the wrapped engine takes the same paths.
type tracedJournal struct {
	rec *recorder
	mgr *wal.Manager
}

var (
	_ engine.Journal        = tracedJournal{}
	_ engine.RegistryWriter = tracedJournal{}
)

func (j tracedJournal) span(name string) int { return j.rec.begin(name, laneJournal, laneFront) }

func (j tracedJournal) LogRegister(name string, schema *relation.Schema, rows []relation.Tuple) error {
	id := j.span("wal.register")
	defer j.rec.end(id, 0)
	return j.mgr.LogRegister(name, schema, rows)
}

func (j tracedJournal) LogAppend(name string, rows []relation.Tuple) error {
	id := j.span("wal.append")
	defer j.rec.end(id, 0)
	return j.mgr.LogAppend(name, rows)
}

func (j tracedJournal) LogCells(name string, cells []wal.CellWrite, confirm bool) error {
	id := j.span("wal.cells")
	defer j.rec.end(id, 0)
	return j.mgr.LogCells(name, cells, confirm)
}

func (j tracedJournal) LogConfirm(name string, tid, attr int) error {
	id := j.span("wal.confirm")
	defer j.rec.end(id, 0)
	return j.mgr.LogConfirm(name, tid, attr)
}

func (j tracedJournal) LogConstraints(name, text string) error {
	id := j.span("wal.constraints")
	defer j.rec.end(id, 0)
	return j.mgr.LogConstraints(name, text)
}

func (j tracedJournal) LogDCs(name, text string) error {
	id := j.span("wal.dcs")
	defer j.rec.end(id, 0)
	return j.mgr.LogDCs(name, text)
}

func (j tracedJournal) LogDrop(name string) error {
	id := j.span("wal.drop")
	defer j.rec.end(id, 0)
	return j.mgr.LogDrop(name)
}

func (j tracedJournal) LogAppendRaw(name string, rows [][]string) error {
	id := j.span("wal.append_raw")
	defer j.rec.end(id, 0)
	return j.mgr.LogAppendRaw(name, rows)
}

func (j tracedJournal) WriteRegistry(data []byte) error {
	id := j.span("wal.registry")
	defer j.rec.end(id, 0)
	return j.mgr.WriteRegistry(data)
}

// shardClient is what the coordinator needs from a worker client,
// including the retry counter it type-asserts for.
type shardClient interface {
	engine.ShardClient
	engine.RetryReporter
}

// tracedShard times every fan-out call to worker w. It forwards
// engine.RetryReporter, so the coordinator's stats path is unchanged.
type tracedShard struct {
	rec   *recorder
	w     int
	inner shardClient
}

var _ shardClient = tracedShard{}

func (s tracedShard) span(call string) int {
	return s.rec.begin("fanout."+call, laneFanout(s.w), laneFront)
}

func (s tracedShard) URL() string     { return s.inner.URL() }
func (s tracedShard) Retries() uint64 { return s.inner.Retries() }

func (s tracedShard) Register(dataset string, schema *relation.Schema, tuples []relation.Tuple) error {
	id := s.span("register")
	defer s.rec.end(id, 0)
	return s.inner.Register(dataset, schema, tuples)
}

func (s tracedShard) Drop(dataset string) error {
	id := s.span("drop")
	defer s.rec.end(id, 0)
	return s.inner.Drop(dataset)
}

func (s tracedShard) InstallConstraints(dataset, cfds string) error {
	id := s.span("constraints")
	defer s.rec.end(id, 0)
	return s.inner.InstallConstraints(dataset, cfds)
}

func (s tracedShard) InstallDCs(dataset, dcs string) error {
	id := s.span("dcs")
	defer s.rec.end(id, 0)
	return s.inner.InstallDCs(dataset, dcs)
}

func (s tracedShard) ShardDetect(dataset, cfds string, set *cfd.Set) ([]cfd.ShardResult, error) {
	id := s.span("shard_detect")
	defer s.rec.end(id, 0)
	return s.inner.ShardDetect(dataset, cfds, set)
}

func (s tracedShard) ShardGroups(dataset string, partAttrs, valAttrs []int, keys []string) ([]cfd.BoundaryGroup, error) {
	id := s.span("shard_groups")
	defer s.rec.end(id, 0)
	return s.inner.ShardGroups(dataset, partAttrs, valAttrs, keys)
}

func (s tracedShard) ShardDCs(dataset string) (map[string]dc.ShardResult, error) {
	id := s.span("shard_dc")
	defer s.rec.end(id, 0)
	return s.inner.ShardDCs(dataset)
}

func (s tracedShard) Append(dataset string, tuples [][]string) (int, error) {
	id := s.span("append")
	defer s.rec.end(id, 0)
	return s.inner.Append(dataset, tuples)
}

func (s tracedShard) Discover(dataset string, minSupport, maxLHS int) ([]string, error) {
	id := s.span("discover")
	defer s.rec.end(id, 0)
	return s.inner.Discover(dataset, minSupport, maxLHS)
}
