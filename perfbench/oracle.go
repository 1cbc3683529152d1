package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"semandaq/internal/cfd"
	"semandaq/internal/dc"
	"semandaq/internal/relation"
)

// cfdExpect is the reference answer of detect and violations: how many
// violations and which tuples they implicate.
type cfdExpect struct {
	Count int   `json:"count"`
	TIDs  []int `json:"tids"`
}

// naiveCFD is cfd.DetectNaive's semantics computed by hashing instead
// of comparing all pairs: a constant violation per (tuple, matching
// row, constant RHS cell it breaks); a variable violation per (row,
// wildcard RHS attribute, LHS group) whose members disagree on that
// attribute, implicating the whole group. It shares no code with the
// detectors under test beyond the pattern and value types.
func naiveCFD(r *relation.Relation, set *cfd.Set) cfdExpect {
	implicated := map[int]bool{}
	count := 0
	for _, c := range set.All() {
		lhs, rhs, tab := c.LHS(), c.RHS(), c.Tableau()
		nl := len(lhs)
		groups := map[string][]int{}
		for tid, t := range r.Tuples() {
			for _, row := range tab {
				if !row[:nl].Matches(t, lhs) {
					continue
				}
				for j, a := range rhs {
					if p := row[nl+j]; p.IsConst() && !p.Matches(t[a]) {
						count++
						implicated[tid] = true
					}
				}
			}
			k := t.Key(lhs)
			groups[k] = append(groups[k], tid)
		}
		for _, members := range groups {
			rep := r.Tuple(members[0])
			for _, row := range tab {
				if !row[:nl].Matches(rep, lhs) {
					continue
				}
				for j, a := range rhs {
					if !row[nl+j].IsWild() {
						continue
					}
					for _, m := range members[1:] {
						if !r.Tuple(m)[a].Identical(rep[a]) {
							count++
							for _, m := range members {
								implicated[m] = true
							}
							break
						}
					}
				}
			}
		}
	}
	tids := make([]int, 0, len(implicated))
	for tid := range implicated {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	return cfdExpect{Count: count, TIDs: tids}
}

// dcReportExpect is one DC's reference violation list.
type dcReportExpect struct {
	Name       string         `json:"name"`
	Count      int            `json:"count"`
	Violations []dc.Violation `json:"violations"`
	TIDs       []int          `json:"tids"`
}

// naiveDC runs dc.DetectNaive inside each group of the DC's equality
// attributes (a pair across groups fails the equality predicate, so the
// result equals the all-pairs scan), mapping TIDs back.
func naiveDC(r *relation.Relation, set *dc.Set) []dcReportExpect {
	var out []dcReportExpect
	for _, d := range set.All() {
		eq := d.EqualityAttrs()
		groups := map[string][]int{}
		var keys []string
		for tid, t := range r.Tuples() {
			k := t.Key(eq)
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], tid)
		}
		var vios []dc.Violation
		for _, k := range keys {
			members := groups[k]
			sub := relation.New(r.Schema())
			for _, tid := range members {
				sub.InsertUnchecked(r.Tuple(tid))
			}
			for _, v := range dc.DetectNaive(sub, d) {
				vios = append(vios, dc.Violation{T: members[v.T], U: members[v.U]})
			}
		}
		sort.Slice(vios, func(i, j int) bool {
			if vios[i].T != vios[j].T {
				return vios[i].T < vios[j].T
			}
			return vios[i].U < vios[j].U
		})
		out = append(out, dcReportExpect{Name: d.Name(), Count: len(vios), Violations: vios, TIDs: dc.ViolatingTIDs(vios)})
	}
	return out
}

// oracle checks every reply of the measured window. Replies that repeat
// a body already verified (up to the elapsed-time fields) are accepted
// by byte comparison, so the check costs a decode only once per
// distinct answer.
type oracle struct {
	w       workload
	detect  cfdExpect
	dcs     []dcReportExpect
	mu      sync.Mutex
	verdict map[opKind][][]byte // verified canonical bodies
	disc    []string            // discover's set-up answer
	discSet bool
}

func newOracle(w workload, in *inputs) (*oracle, error) {
	set, err := cfd.ParseSet(in.cust.cfds, in.cust.schema)
	if err != nil {
		return nil, fmt.Errorf("parsing cust constraints: %w", err)
	}
	o := &oracle{w: w, detect: naiveCFD(in.cust.rel, set), verdict: map[opKind][][]byte{}}
	if in.emp != nil {
		dcs, err := dc.ParseSet(in.emp.dcs, in.emp.schema)
		if err != nil {
			return nil, fmt.Errorf("parsing emp constraints: %w", err)
		}
		o.dcs = naiveDC(in.emp.rel, dcs)
	}
	return o, nil
}

const maxVerified = 4

func (o *oracle) known(op opKind, canon []byte) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, b := range o.verdict[op] {
		if bytes.Equal(b, canon) {
			return true
		}
	}
	return false
}

func (o *oracle) remember(op opKind, canon []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.verdict[op]) < maxVerified {
		o.verdict[op] = append(o.verdict[op], append([]byte(nil), canon...))
	}
}

// appendReply is the part of an append reply the oracle checks.
type appendReply struct {
	Appended int `json:"appended"`
	Tuples   int `json:"tuples"`
	Repair   *struct {
		Changes []struct {
			Attr string `json:"attr"`
			From string `json:"from"`
			To   string `json:"to"`
		} `json:"changes"`
	} `json:"repair"`
}

// check verifies one reply. For appends it returns the number of cells
// the repair rewrote.
func (o *oracle) check(p plannedOp, body []byte) (changes int, err error) {
	switch p.kind {
	case opDetect, opViolations, opDCDetect:
		canon := canonical(body)
		if o.known(p.kind, canon) {
			return 0, nil
		}
		if p.kind == opDCDetect {
			err = o.checkDC(body)
		} else {
			err = o.checkCFD(body)
		}
		if err == nil {
			o.remember(p.kind, canon)
		}
		return 0, err
	case opDiscover:
		var got struct {
			CFDs []string `json:"cfds"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, err
		}
		o.mu.Lock()
		defer o.mu.Unlock()
		if !o.discSet {
			o.disc, o.discSet = got.CFDs, true
			return 0, nil
		}
		if !reflect.DeepEqual(got.CFDs, o.disc) {
			return 0, fmt.Errorf("discover returned %d CFDs, set-up answer had %d", len(got.CFDs), len(o.disc))
		}
		return 0, nil
	case opAppend:
		var got appendReply
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, err
		}
		if got.Appended != 1 {
			return 0, fmt.Errorf("append acked %d rows, sent 1", got.Appended)
		}
		if got.Repair == nil {
			if o.w.mode != modeCluster {
				return 0, fmt.Errorf("append reply has no repair")
			}
			return 0, nil
		}
		ch := got.Repair.Changes
		switch {
		case !p.dirty && len(ch) != 0:
			return len(ch), fmt.Errorf("clean append was rewritten: %+v", ch)
		case p.dirty && (len(ch) != 1 || ch[0].Attr != "CT" || ch[0].From != "xx" || ch[0].To != "mh"):
			return len(ch), fmt.Errorf("dirty append repaired as %+v, want CT xx->mh", ch)
		}
		return len(ch), nil
	}
	return 0, fmt.Errorf("no check for %s", p.kind)
}

func (o *oracle) checkCFD(body []byte) error {
	var got cfdExpect
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Count != o.detect.Count || !reflect.DeepEqual(got.TIDs, o.detect.TIDs) {
		return fmt.Errorf("detect: %d violations over %d tuples, reference has %d over %d",
			got.Count, len(got.TIDs), o.detect.Count, len(o.detect.TIDs))
	}
	return nil
}

func (o *oracle) checkDC(body []byte) error {
	var got struct {
		Reports []dcReportExpect `json:"reports"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Reports) != len(o.dcs) {
		return fmt.Errorf("dc detect: %d reports, reference has %d", len(got.Reports), len(o.dcs))
	}
	for i, want := range o.dcs {
		g := got.Reports[i]
		if g.Name != want.Name || g.Count != want.Count ||
			!reflect.DeepEqual(g.Violations, want.Violations) || !reflect.DeepEqual(g.TIDs, want.TIDs) {
			return fmt.Errorf("dc detect %s: %d violations, reference %s has %d", g.Name, g.Count, want.Name, want.Count)
		}
	}
	return nil
}

// canonical blanks the timing fields a reply carries, leaving bytes
// that repeat exactly when the answer does.
func canonical(body []byte) []byte {
	const key = `"elapsed_ms":`
	out := make([]byte, 0, len(body))
	for {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			return append(out, body...)
		}
		out = append(out, body[:i+len(key)]...)
		out = append(out, '0')
		body = body[i+len(key):]
		j := 0
		for j < len(body) && bytes.IndexByte([]byte("0123456789.eE+-"), body[j]) >= 0 {
			j++
		}
		body = body[j:]
	}
}

// numberAfter parses the JSON number following the first occurrence of
// "key": in body (the top-level field for the replies read here, whose
// keys encoding/json writes in sorted order).
func numberAfter(body []byte, key string) (float64, bool) {
	k := []byte(`"` + key + `":`)
	i := bytes.Index(body, k)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(k):]
	j := 0
	for j < len(rest) && bytes.IndexByte([]byte("0123456789.eE+-"), rest[j]) >= 0 {
		j++
	}
	var v float64
	if err := json.Unmarshal(rest[:j], &v); err != nil {
		return 0, false
	}
	return v, true
}
