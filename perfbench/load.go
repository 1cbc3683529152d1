package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// window is what one measured stretch of closed-loop traffic produced.
type window struct {
	lat       [numOps][]time.Duration // successful ops only
	attempted int
	failed    int
	errs      []string // the first few failures
	wall      time.Duration
	appended  int       // acked appends
	changes   int       // cells rewritten by acked appends' repairs
	ckptMS    []float64 // checkpoint durations (durable)
	logBytes  int64     // bytes the WAL grew by, across checkpoints (durable)
}

const maxErrs = 5

// drive runs each plan on its own closed-loop client — one keep-alive
// connection, the next request only after the reply is read — against
// wd, checking every reply with orc. Latency is send to last reply
// byte; the check runs after the clock stops. tag keeps the appended
// rows of different windows distinct.
func drive(ctx context.Context, wd *world, plans [][]plannedOp, tag string, orc *oracle, rec *recorder) (*window, error) {
	var (
		mu    sync.Mutex
		win   = &window{}
		acked atomic.Int64
		wg    sync.WaitGroup
		ckErr error
	)
	fail := func(op opKind, err error) {
		mu.Lock()
		win.failed++
		if len(win.errs) < maxErrs {
			win.errs = append(win.errs, fmt.Sprintf("%s: %v", op, err))
		}
		mu.Unlock()
	}
	var lastLog int64 // WAL size after the last checkpoint
	if wd.mgr != nil {
		lastLog = wd.mgr.LogSize()
	}
	start := time.Now()
	for c, plan := range plans {
		hc := newHTTPClient(&wd.c)
		wg.Add(1)
		go func(c int, plan []plannedOp) {
			defer wg.Done()
			var buf bytes.Buffer
			for seq, p := range plan {
				if ctx.Err() != nil {
					return
				}
				req := wd.request(p, tag, c, seq)
				id := rec.begin("client."+p.kind.String(), laneClient, "")
				t0 := time.Now()
				body, err := do(ctx, hc, req.method, req.url, req.body, &buf)
				dur := time.Since(t0)
				rec.end(id, len(body))
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				win.attempted++
				mu.Unlock()
				if err != nil {
					fail(p.kind, err)
					continue
				}
				changes, err := orc.check(p, body)
				if err != nil {
					fail(p.kind, err)
					continue
				}
				if rec != nil {
					ms, _ := numberAfter(body, "elapsed_ms")
					bf, _ := numberAfter(body, "boundary_fraction")
					rec.annotate(id, ms, bf)
				}
				mu.Lock()
				win.lat[p.kind] = append(win.lat[p.kind], dur)
				win.changes += changes
				mu.Unlock()
				if p.kind != opAppend {
					continue
				}
				n := acked.Add(1)
				if wd.mgr != nil && wd.w.checkpointEvery > 0 && n%int64(wd.w.checkpointEvery) == 0 {
					// The daemon's checkpoint loop, played at a fixed
					// append count instead of on a timer.
					mu.Lock()
					win.logBytes += wd.mgr.LogSize() - lastLog
					t := time.Now()
					err := wd.mgr.Checkpoint(wd.eng)
					win.ckptMS = append(win.ckptMS, msOf(time.Since(t)))
					lastLog = wd.mgr.LogSize()
					if err != nil && ckErr == nil {
						ckErr = fmt.Errorf("checkpoint: %w", err)
					}
					mu.Unlock()
				}
			}
		}(c, plan)
	}
	wg.Wait()
	win.wall = time.Since(start)
	win.appended = int(acked.Load())
	if wd.mgr != nil {
		win.logBytes += wd.mgr.LogSize() - lastLog
	}
	if ctx.Err() != nil {
		return nil, errInterrupted
	}
	return win, ckErr
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// tailFor is the highest of p99, p95 and p90 that leaves at least ten
// samples beyond it, or 0.5 when none does.
func tailFor(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}
