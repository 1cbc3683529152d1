package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"semandaq/internal/cfd"
	"semandaq/internal/datagen"
	"semandaq/internal/dc"
	"semandaq/internal/noise"
)

// shrink cuts every workload to a tiny size for the duration of a test.
func shrink(t *testing.T) {
	t.Helper()
	saved := append([]workload(nil), workloads...)
	t.Cleanup(func() { copy(workloads, saved) })
	for i := range workloads {
		workloads[i].custN = 1500
		if workloads[i].empN > 0 {
			workloads[i].empN = 200
		}
		workloads[i].checkpointEvery = 20
	}
}

// TestOraclesMatchNaive pins the hashed CFD oracle and the grouped DC
// oracle to the all-pairs reference detectors.
func TestOraclesMatchNaive(t *testing.T) {
	clean := datagen.Cust(400, 5)
	schema := clean.Schema()
	dirty, _ := noise.Dirty(clean, noise.Options{Rate: 0.1, Attrs: []int{schema.MustIndex("STR"), schema.MustIndex("CT")}, Seed: 6})
	set := datagen.CustConstraints()
	var all []cfd.Violation
	for _, c := range set.All() {
		vs, err := cfd.DetectNaive(dirty, c)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, vs...)
	}
	got := naiveCFD(dirty, set)
	if got.Count != len(all) || !reflect.DeepEqual(got.TIDs, cfd.ViolatingTIDs(all)) {
		t.Fatalf("hashed oracle: %d violations over %v; DetectNaive: %d over %v",
			got.Count, got.TIDs, len(all), cfd.ViolatingTIDs(all))
	}
	if got.Count == 0 {
		t.Fatal("no violations planted; the comparison proves nothing")
	}

	emp := datagen.Emp(300, 6, 7)
	dcs, err := dc.ParseSet(datagen.EmpDCText(), emp.Schema())
	if err != nil {
		t.Fatal(err)
	}
	reports := naiveDC(emp, dcs)
	want := dc.DetectNaive(emp, dcs.All()[0])
	if len(reports) != 1 || !reflect.DeepEqual(reports[0].Violations, want) || len(want) == 0 {
		t.Fatalf("grouped DC oracle: %v; DetectNaive: %v", reports, want)
	}
}

// TestWorkloadsTearDown runs every workload, untraced and traced, at a
// tiny size: each must answer correctly, and afterwards no listener may
// answer on any port it used and no temp dir may remain.
func TestWorkloadsTearDown(t *testing.T) {
	shrink(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := runBench(context.Background(), config{workload: w.name, seed: 3, seconds: 1, trace: trace, workdir: dir, log: os.Stderr})
				if err != nil {
					t.Fatal(err)
				}
				if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted == 0 {
					t.Fatalf("result %+v, meta %v", res.out, res.meta)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.out.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d: %v", len(res.out.Metrics), len(want), res.out.Metrics)
				}
				if len(res.urls) == 0 {
					t.Fatal("no listeners recorded")
				}
				assertTornDown(t, dir, res.urls)
			})
		}
	}
}

// TestInterruptTearsDown sends SIGINT to the process mid-run: the run
// must stop without a result and release every listener and temp dir.
func TestInterruptTearsDown(t *testing.T) {
	shrink(t)
	dir := t.TempDir()
	before := listeners(t)
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"--workload", "cluster-scatter", "--seed", "4", "--seconds", "60", "--workdir", dir}, &stdout, &stderr)
	}()
	// Signal once the run is serving traffic, i.e. its listeners exist.
	deadline := time.Now().Add(time.Minute)
	for listeners(t) <= before {
		if time.Now().After(deadline) {
			t.Fatal("run never started listening")
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case rc := <-done:
		if rc == 0 {
			t.Fatalf("interrupted run exited 0: %s", stdout.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("interrupted run did not stop")
	}
	if stdout.Len() != 0 {
		t.Fatalf("interrupted run printed a result: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr = %q", stderr.String())
	}
	if n := listeners(t); n != before {
		t.Fatalf("%d listening sockets remain, had %d before", n, before)
	}
	assertTornDown(t, dir, nil)
}

func assertTornDown(t *testing.T, dir string, urls []string) {
	t.Helper()
	for _, u := range urls {
		c, err := net.DialTimeout("tcp", strings.TrimPrefix(u, "http://"), time.Second)
		if err == nil {
			c.Close()
			t.Errorf("%s still answers", u)
		}
	}
	left, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp dirs remain: %v", left)
	}
}

// listeners counts this process's listening TCP sockets.
func listeners(t *testing.T) int {
	t.Helper()
	inodes := map[string]bool{}
	for _, f := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			fs := strings.Fields(line)
			if len(fs) > 9 && fs[3] == "0A" { // TCP_LISTEN
				inodes[fs[9]] = true
			}
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, "socket:[") && inodes[strings.TrimSuffix(strings.TrimPrefix(target, "socket:["), "]")] {
			n++
		}
	}
	return n
}

// TestResultLine checks the printed result's shape.
func TestResultLine(t *testing.T) {
	shrink(t)
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"--workload", "single-read", "--seed", "2", "--seconds", "1", "--workdir", t.TempDir()}, &stdout, &stderr); rc != 0 {
		t.Fatalf("rc %d: %s", rc, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
}
