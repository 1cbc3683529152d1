// Command perfbench is the semandaq service benchmark. It hosts the
// service it measures inside its own process — server.New over an
// engine, or server.NewCoordinator over in-process workers — on
// loopback listeners, drives it over real HTTP with seeded closed-loop
// clients, checks every reply against an oracle, and prints one JSON
// result line. It starts no child process, and it closes every
// listener, engine, WAL manager and temp dir it made on every exit path.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload single-read|ingest-durable|cluster-scatter \
//	          --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics of two untraced clients.
// --trace 1 runs the same seed with one client twice, first untraced,
// then with spans recorded at every layer boundary, and reports the
// per-layer metrics plus the tracing overhead; the spans are written to
// .bench_build/trace/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string // root for temp dirs and trace output
	log      io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{log: stderr}
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sizes the fixed op sequence")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for temp data and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := runBench(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": res.meta}); err != nil {
		return 1
	}
	if err := enc.Encode(res.out); err != nil {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out  output
	meta map[string]any
	urls []string // every listener the run served on
}

func opsPerClient(w workload, seconds int) int {
	n := int(float64(seconds)*w.opsPerSecond + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// runBench owns every resource of a run: whatever it acquired is
// released before it returns, including when it panics.
func runBench(ctx context.Context, cfg config) (res *result, err error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	var run closers
	defer run.closeAll()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	absWork, err := filepath.Abs(cfg.workdir)
	if err != nil {
		return nil, err
	}
	tmpRoot, err := makeTempDir(&run, filepath.Join(absWork, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, tmpRoot: tmpRoot, run: &run, ops: opsPerClient(w, cfg.seconds)}
	if b.in, err = makeInputs(w, cfg.seed, b.ops, 2); err != nil {
		return nil, err
	}
	if b.orc, err = newOracle(w, b.in); err != nil {
		return nil, err
	}
	b.meta = map[string]any{
		"workload":       w.name,
		"seed":           cfg.seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"cust_tuples":    w.custN,
		"emp_tuples":     w.empN,
		"workers":        w.workers,
		"weights":        weightsMeta(w),
		"ops_per_client": b.ops,
	}
	if w.dirtyEvery > 0 {
		b.meta["dirty_append_share"] = 1 / float64(w.dirtyEvery)
	}
	if cfg.trace {
		err = b.traced(ctx)
	} else {
		err = b.untraced(ctx)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, errInterrupted
		}
		return nil, err
	}
	b.out.Correct = b.out.Failed == 0 && len(b.checkErrs) == 0
	if len(b.checkErrs) > 0 {
		b.meta["check_errors"] = b.checkErrs
	}
	return &result{out: b.out, meta: b.meta, urls: b.urls}, nil
}

func weightsMeta(w workload) map[string]int {
	m := map[string]int{}
	for op, wt := range w.weights {
		if wt > 0 {
			m[opKind(op).String()] = wt
		}
	}
	return m
}

// bench is the state of one run.
type bench struct {
	cfg       config
	w         workload
	tmpRoot   string
	run       *closers
	ops       int
	in        *inputs
	orc       *oracle
	ref       *world // cluster: the single-process reference
	meta      map[string]any
	out       output
	checkErrs []string
	replayed  int      // WAL records the last recovery replayed
	urls      []string // every listener served on
}

func (b *bench) checkFailed(err error) {
	b.checkErrs = append(b.checkErrs, err.Error())
	fmt.Fprintf(b.cfg.log, "perfbench: check failed: %v\n", err)
}
