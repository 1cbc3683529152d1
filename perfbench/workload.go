package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"semandaq/internal/datagen"
	"semandaq/internal/noise"
	"semandaq/internal/relation"
)

// opKind is one public operation of the service.
type opKind int

const (
	opDetect opKind = iota
	opViolations
	opAppend
	opDCDetect
	opDiscover
	numOps
)

var opNames = [numOps]string{"detect", "violations", "append", "dc_detect", "discover"}

func (o opKind) String() string { return opNames[o] }

// mode is how the service under test is assembled.
type mode int

const (
	modePlain   mode = iota // server.New over an in-memory engine
	modeDurable             // the same, journaling to a wal.Manager
	modeCluster             // server.NewCoordinator over in-process workers
)

// workload is one traffic mix against one service shape.
type workload struct {
	name    string
	mode    mode
	custN   int
	empN    int
	workers int // cluster only
	// weights are relative op counts; each client's sequence holds them
	// in exactly this proportion, shuffled by the seed.
	weights [numOps]int
	// dirtyEvery: one in this many appends carries a CT cell phi3
	// rewrites (0 = every append is clean).
	dirtyEvery int
	// checkpointEvery runs wal.Manager.Checkpoint after this many acked
	// appends (durable only).
	checkpointEvery int
	// opsPerSecond sizes the fixed op sequence: each client runs
	// seconds*opsPerSecond ops, so every run does the same work and a
	// slower program takes longer rather than doing less.
	opsPerSecond float64
	// tails is the fixed tail percentile reported per op: the highest of
	// p99, p95 and p90 that leaves ten samples beyond it at the
	// benchmark's run length, or the median where none does.
	tails [numOps]float64
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// recoveries is how many copies of the data dir are recovered.
	recoveries int
}

// Discovery parameters every discover request uses.
const (
	discoverMinSupport = 50
	discoverMaxLHS     = 1
)

// zipstrDC is the planted (CC, ZIP) -> STR rule restated as a DC.
const zipstrDC = "dc zipstr: !( t.CC = u.CC & t.ZIP = u.ZIP & t.STR != u.STR )"

var workloads = []workload{
	{
		name:         "single-read",
		mode:         modePlain,
		custN:        50000,
		empN:         5000,
		weights:      [numOps]int{opDetect: 3, opViolations: 4, opDCDetect: 2, opDiscover: 1},
		opsPerSecond: 55,
		tails:        [numOps]float64{opDetect: 0.95, opViolations: 0.99, opDCDetect: 0.95, opDiscover: 0.95},
		setups:       5,
	},
	{
		name:            "ingest-durable",
		mode:            modeDurable,
		custN:           20000,
		weights:         [numOps]int{opAppend: 8, opViolations: 1, opDetect: 1},
		dirtyEvery:      4,
		checkpointEvery: 1000,
		opsPerSecond:    230,
		tails:           [numOps]float64{opAppend: 0.99, opViolations: 0.99, opDetect: 0.99},
		setups:          5,
		recoveries:      3,
	},
	{
		name:    "cluster-scatter",
		mode:    modeCluster,
		custN:   10000,
		empN:    1000,
		workers: 2,
		// Discover costs seconds here against tens of ms for the rest,
		// so it gets 1 in 243 ops: about a third of client time.
		weights:      [numOps]int{opDetect: 66, opViolations: 88, opAppend: 66, opDCDetect: 22, opDiscover: 1},
		opsPerSecond: 15,
		tails:        [numOps]float64{opDetect: 0.95, opViolations: 0.95, opAppend: 0.95, opDCDetect: 0.5, opDiscover: 0.5},
		// Each set-up includes a warm-up discover of seconds.
		setups: 3,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// dataset is one generated input, as the service receives it (CSV text)
// and as the benchmark's oracles see it (the same text parsed back).
type dataset struct {
	name   string
	schema *relation.Schema
	csv    string
	rel    *relation.Relation
	cfds   string
	dcs    string
}

func newDataset(name string, rel *relation.Relation, cfds, dcs string) (*dataset, error) {
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, rel); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	parsed, err := relation.ReadCSV(bytes.NewReader(buf.Bytes()), rel.Schema())
	if err != nil {
		return nil, fmt.Errorf("re-reading %s: %w", name, err)
	}
	return &dataset{name: name, schema: rel.Schema(), csv: buf.String(), rel: parsed, cfds: cfds, dcs: dcs}, nil
}

// registerBody is the POST /v1/datasets request for d.
func (d *dataset) registerBody() map[string]any {
	attrs := make([]map[string]string, d.schema.Arity())
	for i, a := range d.schema.Attrs() {
		attrs[i] = map[string]string{"name": a.Name, "kind": a.Kind.String()}
	}
	return map[string]any{
		"name":   d.name,
		"schema": map[string]any{"name": d.schema.Name(), "attrs": attrs},
		"csv":    d.csv,
	}
}

// inputs are everything the seed determines.
type inputs struct {
	cust *dataset
	emp  *dataset // nil when the workload has no emp
	// plans[c] is client c's op sequence.
	plans [][]plannedOp
}

// plannedOp is one op of a client's fixed sequence.
type plannedOp struct {
	kind  opKind
	dirty bool // appends only
}

func makeInputs(w workload, seed int64, opsPerClient, clients int) (*inputs, error) {
	clean := datagen.Cust(w.custN, seed)
	schema := clean.Schema()
	dirty, _ := noise.Dirty(clean, noise.Options{
		Rate:  0.05,
		Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")},
		Seed:  seed + 1,
	})
	cust, err := newDataset("cust", dirty, datagen.CustConstraints().String(), zipstrDC)
	if err != nil {
		return nil, err
	}
	in := &inputs{cust: cust}
	if w.empN > 0 {
		violations := w.empN / 100
		if violations == 0 {
			violations = 1
		}
		if in.emp, err = newDataset("emp", datagen.Emp(w.empN, violations, seed+2), "", datagen.EmpDCText()); err != nil {
			return nil, err
		}
	}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c) + 7))
		in.plans = append(in.plans, planOps(w, rng, opsPerClient))
	}
	return in, nil
}

// planOps draws a sequence of n ops holding the weights in exact
// proportion (largest-remainder rounding), then shuffles it.
func planOps(w workload, rng *rand.Rand, n int) []plannedOp {
	total := 0
	for _, wt := range w.weights {
		total += wt
	}
	counts := make([]int, numOps)
	type rem struct {
		op   int
		frac float64
	}
	var rems []rem
	left := n
	for op, wt := range w.weights {
		exact := float64(n) * float64(wt) / float64(total)
		counts[op] = int(exact)
		left -= counts[op]
		if wt > 0 {
			rems = append(rems, rem{op, exact - float64(counts[op])})
		}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		counts[rems[i%len(rems)].op]++
	}
	ops := make([]plannedOp, 0, n)
	for op, c := range counts {
		for i := 0; i < c; i++ {
			ops = append(ops, plannedOp{kind: opKind(op)})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		if ops[i].kind == opAppend {
			ops[i].dirty = w.dirtyEvery > 0 && rng.Intn(w.dirtyEvery) == 0
		}
	}
	return ops
}

// appendRow is the positional cust tuple one append sends. Rows sit in
// the ('01', '908') region under a zip no generated row uses, so they
// join no base group whose violations could block their repair; the
// letter in PN keeps it unique against generated phone numbers. A dirty
// row carries CT='xx', which phi2 and phi3 rewrite to 'mh'.
func appendRow(tag string, client, seq int, dirty bool) []string {
	ct := "mh"
	if dirty {
		ct = "xx"
	}
	return []string{"01", "908", fmt.Sprintf("908-%s%d-%06d", tag, client, seq),
		fmt.Sprintf("bench%d", client), "Bench Ln", ct, "07974"}
}
