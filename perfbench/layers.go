package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/discovery"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
)

// traced runs the workload's first client sequence twice on fresh
// worlds: untraced, then with every handler, the journal and every
// worker client wrapped and timed. The per-layer metrics come from the
// second run's spans; the first gives the tracing overhead.
func (b *bench) traced(ctx context.Context) error {
	plan := b.in.plans[:1]
	runtime.GC()
	plain, err := b.setup(ctx, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	untraced, err := drive(ctx, plain, plan, "u", b.orc, nil)
	if err != nil {
		return err
	}
	b.window(untraced)
	plain.close()

	rec := newRecorder()
	runtime.GC()
	wd, err := b.setup(ctx, rec)
	if err != nil {
		return err
	}
	if err := b.buildReference(ctx, wd); err != nil {
		return err
	}
	before, err := wd.cacheInfo(ctx)
	if err != nil {
		return err
	}
	retries0 := wd.retries()
	runtime.GC()
	rec.on.Store(true)
	win, err := drive(ctx, wd, plan, "t", b.orc, rec)
	rec.on.Store(false)
	if err != nil {
		return err
	}
	b.window(win)
	after, err := wd.cacheInfo(ctx)
	if err != nil {
		return err
	}
	if err := b.endChecks(ctx, wd, win); err != nil {
		return err
	}
	recov, err := b.recoveries(ctx, wd)
	if err != nil {
		return err
	}
	kern, err := timeKernels(wd)
	if err != nil {
		return err
	}

	spans := rec.snapshot()
	m := spanMetrics(spans)
	for k, v := range kern {
		m[k] = v
	}
	appended := float64(max(win.appended, 1))
	d := func(a, b uint64) float64 { return float64(a - b) }
	hits := d(after.IndexCache.Hits, before.IndexCache.Hits)
	misses := d(after.IndexCache.Misses, before.IndexCache.Misses)
	refines := d(after.IndexCache.Refines, before.IndexCache.Refines)
	m["relation.cache.hit_ratio"] = ratio(hits, hits+misses+refines)
	m["relation.cache.misses"] = misses
	m["relation.cache.advances_per_append"] = d(after.IndexCache.Advances, before.IndexCache.Advances) / appended
	m["relation.cache.patches_per_append"] = d(after.IndexCache.Patches, before.IndexCache.Patches) / appended
	m["relation.index_resident_mb"] = float64(after.IndexResidentBytes) / (1 << 20)
	if win.appended > 0 && wd.w.mode != modeCluster {
		m["repair.changes_per_append"] = float64(win.changes) / appended
	}
	if wd.mgr != nil {
		m["wal.bytes_per_row"] = float64(win.logBytes) / appended
		m["wal.checkpoint.ms"] = median(win.ckptMS)
		m["wal.recover.ms"] = median(recov)
		m["wal.replayed_records"] = float64(b.replayed)
	}
	m["fanout.retries"] = float64(wd.retries() - retries0)
	for op := opKind(0); op < numOps; op++ {
		if b.w.weights[op] == 0 {
			continue
		}
		m["overhead."+op.String()+".untraced_p50_ms"] = quantile(durMS(untraced.lat[op]), 0.5)
		m["overhead."+op.String()+".traced_p50_ms"] = quantile(durMS(win.lat[op]), 0.5)
	}
	b.out.Metrics = pick(m, perLayer)
	path := filepath.Join(filepath.Dir(filepath.Dir(b.tmpRoot)), "trace",
		fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.cfg.seed))
	if err := rec.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b.meta["spans"] = len(spans)
	b.meta["spans_file"] = path
	b.meta["ops_traced"] = win.attempted
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// retries sums the worker clients' retry counters.
func (wd *world) retries() uint64 {
	var n uint64
	for _, s := range wd.shards {
		n += s.Retries()
	}
	return n
}

// routeOps maps a public route to its op.
var routeOps = map[string]opKind{
	"/v1/detect":                   opDetect,
	"/v1/datasets/cust/violations": opViolations,
	"/v1/repair/incremental":       opAppend,
	"/v1/dc/detect":                opDCDetect,
	"/v1/discover":                 opDiscover,
}

// spanMetrics derives the span-based per-layer metrics: self times are
// a span minus the union of its children, and medians are over the
// requests of each op.
func spanMetrics(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type samples map[string][]float64
	xs := samples{}
	add := func(name string, v float64) { xs[name] = append(xs[name], v) }
	calls := map[string]float64{} // fan-out calls per op
	reqs := map[string]float64{}  // requests per op
	var walAppend, appendFront float64
	for _, s := range spans {
		switch {
		case s.Lane == laneClient:
			op := strings.TrimPrefix(s.Name, "client.")
			reqs[op]++
			add("http."+op+".self_ms", msOf(selfTime(s, children[s.ID])))
			if s.ElapsedMS > 0 {
				add("engine."+op+".ms", s.ElapsedMS)
				for _, f := range children[s.ID] {
					add("server."+op+".encode_ms", msOf(f.dur())-s.ElapsedMS)
				}
			}
			if op == "detect" && s.Boundary > 0 {
				add("merge.boundary_fraction", s.Boundary)
			}
		case s.Lane == laneFront:
			op, ok := routeOps[s.Name]
			if !ok {
				continue
			}
			add("server."+op.String()+".ms", msOf(s.dur()))
			add("server."+op.String()+".resp_kb", float64(s.Bytes)/1024)
			var journal, fan []span
			for _, c := range children[s.ID] {
				switch {
				case c.Lane == laneJournal:
					journal = append(journal, c)
				case strings.HasPrefix(c.Lane, "fanout/"):
					fan = append(fan, c)
				}
			}
			calls[op.String()] += float64(len(fan))
			switch op {
			case opAppend:
				add("engine.append.self_ms", msOf(selfTime(s, journal)))
				appendFront += msOf(s.dur())
				for _, j := range journal {
					walAppend += msOf(j.dur())
				}
			case opDetect, opDCDetect, opDiscover:
				if len(fan) > 0 {
					add("merge."+op.String()+".self_ms", msOf(selfTime(s, fan)))
				}
			}
		case s.Lane == laneJournal:
			if s.Name == "wal.append" {
				add("wal.append.ms", msOf(s.dur()))
			}
		case strings.HasPrefix(s.Lane, "fanout/"):
			call := strings.TrimPrefix(s.Name, "fanout.")
			add("fanout."+call+".ms", msOf(s.dur()))
			if call == "shard_detect" {
				add("wire.shard_detect.ms", msOf(selfTime(s, children[s.ID])))
			}
		case strings.HasPrefix(s.Lane, "worker/"):
			if s.Name == "/v1/shard/detect" {
				add("worker.shard_detect.ms", msOf(s.dur()))
				add("worker.shard_detect.resp_kb", float64(s.Bytes)/1024)
			}
		}
	}
	m := map[string]float64{}
	for name, v := range xs {
		m[name] = median(v)
	}
	if v := xs["wal.append.ms"]; len(v) > 0 {
		m["wal.append.p99_ms"] = quantile(v, 0.99)
	}
	m["wal.append_share"] = ratio(walAppend, appendFront)
	for _, op := range []string{"detect", "dc_detect", "discover"} {
		m["fanout.calls_per_"+op] = ratio(calls[op], reqs[op])
	}
	return m
}

// selfTime is s's duration minus the part of it its children cover.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return s.dur() - covered
}

// kernelRuns is how many timed calls each kernel gets after a warm-up.
const kernelRuns = 5

// timeKernels times direct calls into the cfd, dc and discovery
// kernels on a snapshot of the data the service holds (a worker's
// slice in the cluster), over a warm index cache the benchmark owns.
func timeKernels(wd *world) (map[string]float64, error) {
	eng := wd.eng
	if wd.w.mode == modeCluster {
		eng = wd.workers[0]
	}
	m := map[string]float64{}
	if s, ok := eng.Get("cust"); ok {
		r := s.Snapshot()
		cache := relation.NewIndexCache()
		det := cfd.NewDetectorWithCache(s.Constraints(), cache)
		var err error
		m["cfd.detect.ms"], err = timeCall(func() error {
			_, err := det.DetectParallel(r, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		opts := discovery.Options{MinSupport: discoverMinSupport, MaxLHS: discoverMaxLHS, Cache: cache, Workers: runtime.NumCPU()}
		m["discovery.discover.ms"], err = timeCall(func() error {
			_, err := discovery.Discover(r, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if s, ok := eng.Get("emp"); ok {
		m["dc.detect.ms"] = timeDCs(s)
	}
	return m, nil
}

func timeDCs(s *engine.Session) float64 {
	r := s.Snapshot()
	cache := relation.NewIndexCache()
	dcs := s.DCs().All()
	ms, _ := timeCall(func() error {
		for _, d := range dcs {
			dc.Detect(r, d, dc.Options{Cache: cache})
		}
		return nil
	})
	return ms
}

// timeCall runs fn once to warm caches, then kernelRuns more times, and
// returns the median in ms.
func timeCall(fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < kernelRuns; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, msOf(time.Since(t)))
	}
	return median(xs), nil
}
