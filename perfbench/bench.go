package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/engine"
	"semandaq/internal/relation"
	"semandaq/internal/wal"
)

// setup builds a world and makes it ready: datasets registered,
// constraints installed, and one warm-up pass of every op in the mix
// done and checked. setup_s ends here, never at /healthz, which answers
// before any dataset exists.
func (b *bench) setup(ctx context.Context, rec *recorder) (*world, error) {
	wd, err := buildWorld(b.w, b.tmpRoot, rec)
	if err != nil {
		return nil, err
	}
	b.run.push(wd.close)
	b.urls = append(b.urls, wd.urls...)
	if err := wd.load(ctx, b.in); err != nil {
		return nil, err
	}
	if wd.w.mode == modeCluster {
		s, ok := wd.workers[len(wd.workers)-1].Get("cust")
		if !ok {
			return nil, fmt.Errorf("tail worker has no cust slice")
		}
		wd.tailBase = s.Len()
	}
	var buf bytes.Buffer
	for op, wt := range b.w.weights {
		if wt == 0 {
			continue
		}
		p := plannedOp{kind: opKind(op)}
		req := wd.request(p, "w", 0, 0)
		body, err := do(ctx, wd.hc, req.method, req.url, req.body, &buf)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p.kind, err)
		}
		if _, err := b.orc.check(p, body); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p.kind, err)
		}
	}
	return wd, nil
}

// warmAppends is how many rows set-up's warm-up pass appends.
func (b *bench) warmAppends() int {
	if b.w.weights[opAppend] > 0 {
		return 1
	}
	return 0
}

func (b *bench) untraced(ctx context.Context) error {
	var setupS []float64
	var wd *world
	for i := 0; i < b.w.setups; i++ {
		if wd != nil {
			wd.close()
		}
		// Each set-up, and the window, starts from a collected heap, so
		// the garbage of the last phase is not charged to the next.
		runtime.GC()
		t0 := time.Now()
		var err error
		if wd, err = b.setup(ctx, nil); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if err := b.buildReference(ctx, wd); err != nil {
		return err
	}
	runtime.GC()
	win, err := drive(ctx, wd, b.in.plans, "m", b.orc, nil)
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
	b.window(win)
	m := map[string]float64{
		"setup_s":        median(setupS),
		"throughput_rps": float64(win.attempted-win.failed) / win.wall.Seconds(),
		"peak_rss_mb":    peakRSSMB(),
	}
	tails := map[string]float64{}
	counts := map[string]int{}
	for op := opKind(0); op < numOps; op++ {
		if b.w.weights[op] == 0 {
			continue
		}
		lat := durMS(win.lat[op])
		q := b.w.tails[op]
		if float64(len(lat))*(1-q) < 10 {
			// Too few samples for the fixed percentile (a short smoke
			// run): fall back to the rule and say so.
			q = tailFor(len(lat))
		}
		tails[op.String()] = q
		counts[op.String()] = len(lat)
		m[op.String()+"_p50_ms"] = quantile(lat, 0.5)
		m[op.String()+"_tail_ms"] = quantile(lat, q)
	}
	if len(recov) > 0 {
		m["recovery_s"] = median(recov) / 1000
	}
	b.meta["setup_s_samples"] = setupS
	b.meta["tail_quantiles"] = tails
	b.meta["samples"] = counts
	b.meta["wall_s"] = win.wall.Seconds()
	b.meta["failed_frac"] = float64(win.failed) / float64(max(win.attempted, 1))
	// Op-specific numbers no other workload measures ride along in meta.
	b.meta["all_metrics"] = m
	b.out.Metrics = pick(m, endToEnd)
	return nil
}

// window folds a measured window into the run's op accounting.
func (b *bench) window(win *window) {
	b.out.Attempted += win.attempted
	b.out.Failed += win.failed
	if len(win.errs) > 0 {
		b.meta["op_errors"] = win.errs
	}
}

// buildReference (cluster only) registers the same inputs on a
// single-process server and checks the cluster's detect and dc_detect
// against it byte for byte.
func (b *bench) buildReference(ctx context.Context, wd *world) error {
	if b.w.mode != modeCluster {
		return nil
	}
	ref, err := buildWorld(workload{name: "reference", mode: modePlain}, b.tmpRoot, nil)
	if err != nil {
		return err
	}
	b.run.push(ref.close)
	b.urls = append(b.urls, ref.urls...)
	if err := ref.load(ctx, b.in); err != nil {
		return err
	}
	b.ref = ref
	if err := b.feedReference(ctx, wd); err != nil {
		return err
	}
	if err := sameAnswers(ctx, wd, ref); err != nil {
		b.checkFailed(fmt.Errorf("at set-up: %w", err))
	}
	return nil
}

// feedReference appends to the reference every row the cluster's tail
// worker holds beyond its registered slice and the reference does not
// have yet, in the order the worker applied them.
func (b *bench) feedReference(ctx context.Context, wd *world) error {
	s, ok := wd.workers[len(wd.workers)-1].Get("cust")
	if !ok {
		return fmt.Errorf("tail worker has no cust slice")
	}
	snap := s.Snapshot()
	var have datasetInfo
	if err := call(ctx, b.ref.hc, "GET", b.ref.url+"/v1/datasets/cust", nil, &have); err != nil {
		return err
	}
	from := wd.tailBase + (have.Tuples - b.w.custN)
	for tid := from; tid < snap.Len(); tid++ {
		t := snap.Tuple(tid)
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		body := map[string]any{"dataset": "cust", "tuples": [][]string{row}}
		if err := call(ctx, b.ref.hc, "POST", b.ref.url+"/v1/repair/incremental", body, nil); err != nil {
			return fmt.Errorf("feeding reference: %w", err)
		}
	}
	return nil
}

// sameAnswers compares the answer fields of detect and dc_detect on two
// services byte for byte.
func sameAnswers(ctx context.Context, a, b *world) error {
	for _, q := range []struct {
		op     string
		path   string
		body   []byte
		fields []string
	}{
		{"detect", "/v1/detect", detectBody, []string{"count", "tids", "violations"}},
		{"dc_detect", "/v1/dc/detect", dcDetectBody, []string{"count", "reports"}},
	} {
		var got, want map[string]json.RawMessage
		if err := call(ctx, a.hc, "POST", a.url+q.path, q.body, &got); err != nil {
			return err
		}
		if err := call(ctx, b.hc, "POST", b.url+q.path, q.body, &want); err != nil {
			return err
		}
		for _, f := range q.fields {
			if !bytes.Equal(got[f], want[f]) {
				return fmt.Errorf("cluster %s %q differs from the single-process reference", q.op, f)
			}
		}
	}
	return nil
}

// endChecks runs the end-of-window oracles.
func (b *bench) endChecks(ctx context.Context, wd *world, win *window) error {
	switch b.w.mode {
	case modeCluster:
		if err := b.feedReference(ctx, wd); err != nil {
			return err
		}
		if err := sameAnswers(ctx, wd, b.ref); err != nil {
			b.checkFailed(fmt.Errorf("at the end: %w", err))
		}
	case modeDurable:
		info, err := wd.cacheInfo(ctx)
		if err != nil {
			return err
		}
		want := b.w.custN + b.warmAppends() + win.appended
		if info.Tuples != want {
			b.checkFailed(fmt.Errorf("cust holds %d tuples, want preload %d + acked appends %d",
				info.Tuples, b.w.custN, want-b.w.custN))
		}
	}
	return nil
}

// recoveries (durable only) copies the data dir — the bytes a kill -9
// would leave, since every ack was fsynced — and times wal.OpenManager
// plus Manager.Recover into a fresh engine for each copy, checking the
// recovered dataset against the live session. It returns the times in
// ms.
func (b *bench) recoveries(ctx context.Context, wd *world) ([]float64, error) {
	if wd.mgr == nil {
		return nil, nil
	}
	live, ok := wd.eng.Get("cust")
	if !ok {
		return nil, fmt.Errorf("live engine has no cust")
	}
	liveRows := encodeRows(live.Snapshot())
	liveVios, err := live.Detect()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < b.w.recoveries; i++ {
		if ctx.Err() != nil {
			return nil, errInterrupted
		}
		ms, replayed, err := b.recoverOnce(wd.dataDir, liveRows, liveVios)
		if err != nil {
			return nil, err
		}
		times = append(times, ms)
		b.replayed = replayed
	}
	b.meta["recovery_ms_samples"] = times
	b.meta["recovery_replayed_records"] = b.replayed
	return times, nil
}

func (b *bench) recoverOnce(dataDir string, liveRows [][]byte, liveVios []cfd.Violation) (float64, int, error) {
	var c closers
	defer c.closeAll()
	dir, err := makeTempDir(&c, b.tmpRoot, "recover-")
	if err != nil {
		return 0, 0, err
	}
	if err := copyTree(dataDir, dir); err != nil {
		return 0, 0, fmt.Errorf("copying data dir: %w", err)
	}
	eng := engine.New(engine.Options{})
	c.push(eng.Close)
	t0 := time.Now()
	mgr, err := wal.OpenManager(dir, wal.SyncAlways)
	if err != nil {
		return 0, 0, fmt.Errorf("reopening WAL: %w", err)
	}
	c.push(func() { mgr.Close() })
	_, replayed, err := mgr.Recover(eng)
	ms := msOf(time.Since(t0))
	if err != nil {
		return 0, 0, fmt.Errorf("recovery: %w", err)
	}
	s, ok := eng.Get("cust")
	if !ok {
		b.checkFailed(fmt.Errorf("recovered engine has no cust"))
		return ms, replayed, nil
	}
	if got := encodeRows(s.Snapshot()); !reflect.DeepEqual(got, liveRows) {
		b.checkFailed(fmt.Errorf("recovered cust (%d rows) differs from the live session (%d rows)", len(got), len(liveRows)))
	}
	vios, err := s.Detect()
	if err != nil {
		return 0, 0, err
	}
	if !sameViolations(vios, liveVios) {
		b.checkFailed(fmt.Errorf("recovered cust detects %d violations, live session %d", len(vios), len(liveVios)))
	}
	return ms, replayed, nil
}

func encodeRows(r *relation.Relation) [][]byte {
	out := make([][]byte, r.Len())
	for i := range out {
		out[i] = relation.EncodeTuple(nil, r.Tuple(i))
	}
	return out
}

func sameViolations(a, b []cfd.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() || !reflect.DeepEqual(a[i].TIDs, b[i].TIDs) {
			return false
		}
	}
	return true
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// pick reports the named metrics with their units; a metric the run
// did not measure reads 0.
func pick(m map[string]float64, specs []metricSpec) map[string]metric {
	out := map[string]metric{}
	for _, spec := range specs {
		out[spec.name] = metric{m[spec.name], spec.unit}
	}
	return out
}
