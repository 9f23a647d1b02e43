package links_test

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/wire"
)

// coLocatedSpec is an And negotiation whose five targets live on two
// nodes — the shape per-node batching exists for.
func coLocatedSpec(meeting string) links.Spec {
	return links.Spec{
		Action:     "reserve",
		Args:       wire.Args{"meeting": meeting},
		Targets:    refs("b", "s1", "b", "s2", "b", "s3", "c", "s1", "c", "s2"),
		Constraint: links.And,
	}
}

func refKey(r links.EntityRef) string { return r.User + "/" + r.Entity }

func sortedKeys(rs []links.EntityRef) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = refKey(r)
	}
	sort.Strings(out)
	return out
}

func sameRefs(t *testing.T, what string, got, want []links.EntityRef) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s = %v, want %v", what, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s = %v, want %v", what, g, w)
		}
	}
}

// countCalls installs a listener middleware on each named node that
// counts the RPCs it serves, keyed "service.method".
func countCalls(h *harness, users ...string) func() map[string]int {
	var mu sync.Mutex
	got := make(map[string]int)
	for _, u := range users {
		h.nodes[u].Listener.Use(func(next listener.Method) listener.Method {
			return func(ctx context.Context, call *listener.Call) (any, error) {
				mu.Lock()
				got[call.Service+"."+call.Method]++
				mu.Unlock()
				return next(ctx, call)
			}
		})
	}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(got))
		for k, v := range got {
			out[k] = v
		}
		return out
	}
}

func sameCalls(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("calls = %v, want %v", got, want)
		}
	}
}

// TestBatchedAndCoLocatedTargets: co-located And targets commit with
// one Mark and one Commit per node, whatever the number of entities.
func TestBatchedAndCoLocatedTargets(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	calls := countCalls(h, "b", "c")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), coLocatedSpec("M1"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.State != links.StateCommitted {
		t.Fatalf("result = %+v", res)
	}
	sameRefs(t, "Accepted", res.Accepted, coLocatedSpec("M1").Targets)
	sameRefs(t, "Rejected", res.Rejected, nil)
	for _, ref := range coLocatedSpec("M1").Targets {
		if got := h.nodes[ref.User].status(ref.Entity); got != "M1" {
			t.Fatalf("%s = %q, want M1", refKey(ref), got)
		}
	}
	sameCalls(t, calls(), map[string]int{
		"links.b.Mark": 1, "links.b.Commit": 1,
		"links.c.Mark": 1, "links.c.Commit": 1,
	})
}

// TestBatchedAndConflictMatchesSerial: a conflict inside a run yields
// the sequential And outcome — the conflict and every later target
// rejected (the tail skipped, never marked), nothing applied, the one
// mark taken released by a single Abort, and the later node untouched.
func TestBatchedAndConflictMatchesSerial(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.nodes["b"].setStatus("s2", "OTHER")
	calls := countCalls(h, "b", "c")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), coLocatedSpec("M2"))
	if wire.CodeOf(err) != wire.CodeConflict {
		t.Fatalf("err = %v, want conflict", err)
	}
	if res.OK || res.State != links.StateAborted {
		t.Fatalf("result = %+v", res)
	}
	sameRefs(t, "Accepted", res.Accepted, nil)
	sameRefs(t, "Rejected", res.Rejected, refs("b", "s2", "b", "s3", "c", "s1", "c", "s2"))
	if got := h.nodes["b"].status("s1"); got != "" {
		t.Fatalf("aborted negotiation left b/s1 = %q", got)
	}
	sameCalls(t, calls(), map[string]int{"links.b.Mark": 1, "links.b.Abort": 1})
	// The aborted mark released its lock: a fresh negotiation over the
	// same entities (minus the conflict) works.
	if _, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{"meeting": "M3"},
		Targets: refs("b", "s1", "b", "s3"), Constraint: links.And,
	}); err != nil {
		t.Fatalf("post-abort negotiation failed: %v", err)
	}
}

// TestBatchedOrPartial: Or(k=2) with one co-located conflict marks the
// free entities and commits just those.
func TestBatchedOrPartial(t *testing.T) {
	h := newHarness(t, "a", "b", "c")
	h.nodes["b"].setStatus("s2", "OTHER")
	res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{"meeting": "M4"},
		Targets:    refs("b", "s1", "b", "s2", "c", "s1"),
		Constraint: links.Or, K: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("result = %+v", res)
	}
	sameRefs(t, "Accepted", res.Accepted, refs("b", "s1", "c", "s1"))
	sameRefs(t, "Rejected", res.Rejected, refs("b", "s2"))
	if h.nodes["b"].status("s1") != "M4" || h.nodes["c"].status("s1") != "M4" {
		t.Fatalf("accepted targets not applied: b/s1=%q c/s1=%q",
			h.nodes["b"].status("s1"), h.nodes["c"].status("s1"))
	}
	if h.nodes["b"].status("s2") != "OTHER" {
		t.Fatalf("rejected target overwritten: b/s2=%q", h.nodes["b"].status("s2"))
	}
}

// TestBatchedRedrive: a coordinator that loses connectivity during
// phase 2 of a co-located negotiation journals the decision; the retry
// sweep later redrives it with one Commit per node and the
// participant converges.
func TestBatchedRedrive(t *testing.T) {
	h := newHarness(t, "a", "b")
	lm := h.nodes["a"].Links
	lm.SetCommitFault(func(nid string, ref links.EntityRef) error {
		if ref.User == "b" {
			return &wire.RemoteError{Code: wire.CodeUnavailable, Msg: "injected crash"}
		}
		return nil
	})
	res, err := lm.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{"meeting": "M8"},
		Targets: refs("b", "s1", "b", "s2"), Constraint: links.And,
	})
	if !links.IsInDoubt(err) {
		t.Fatalf("err = %v, want in-doubt", err)
	}
	if res.State != links.StateInDoubt || len(res.InDoubt) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if n := len(lm.JournalPending()); n != 1 {
		t.Fatalf("journal rows = %d, want 1", n)
	}

	lm.SetCommitFault(nil)
	h.clk.Advance(time.Second)
	if n := lm.FaultSweep(ctxBg(), h.clk.Now()); n != 1 {
		t.Fatalf("sweep resolved %d rows, want 1", n)
	}
	if n := len(lm.JournalPending()); n != 0 {
		t.Fatalf("journal did not drain: %v", lm.JournalPending())
	}
	if h.nodes["b"].status("s1") != "M8" || h.nodes["b"].status("s2") != "M8" {
		t.Fatalf("redrive did not apply: s1=%q s2=%q",
			h.nodes["b"].status("s1"), h.nodes["b"].status("s2"))
	}
	if n := h.nodes["b"].Links.PendingMarks(); n != 0 {
		t.Fatalf("participant still holds %d pending marks", n)
	}
}

// wireReply mirrors the Mark/Commit reply on the wire: tokens aligned
// with the request's entities, and only the failed entries listed.
type wireReply struct {
	Tokens []string `json:"tokens"`
	Failed []struct {
		I    int          `json:"i"`
		Code wire.ErrCode `json:"code"`
		Msg  string       `json:"msg"`
	} `json:"failed"`
}

// code is entry i's outcome code.
func (r *wireReply) code(i int) wire.ErrCode {
	for _, f := range r.Failed {
		if f.I == i {
			return f.Code
		}
	}
	return wire.CodeOK
}

// markOne sends from's Mark for a single entity at to and returns the
// granted token and the entry's outcome code; the call itself must
// succeed.
func markOne(t *testing.T, h *harness, from, to, entity, action string, args map[string]any, nid string) (string, wire.ErrCode) {
	t.Helper()
	var r wireReply
	if err := h.nodes[from].Engine.Invoke(ctxBg(), links.ServiceFor(to), "Mark", wire.Args{
		"entities": []string{entity}, "action": action, "args": args, "nid": nid,
	}, &r); err != nil {
		t.Fatalf("Mark call: %v", err)
	}
	if len(r.Tokens) != 1 || len(r.Failed) > 1 {
		t.Fatalf("Mark reply = %+v, want one entry", r)
	}
	if code := r.code(0); code != wire.CodeOK {
		return "", code
	}
	if r.Tokens[0] == "" {
		t.Fatalf("Mark reply = %+v: ok entry without a token", r)
	}
	return r.Tokens[0], wire.CodeOK
}

// commitOne sends from's Commit for a single (entity, token) at to and
// returns the entry's outcome code; the call itself must succeed.
func commitOne(t *testing.T, h *harness, from, to, entity, token, action string, args map[string]any, nid string) wire.ErrCode {
	t.Helper()
	var r wireReply
	if err := h.nodes[from].Engine.Invoke(ctxBg(), links.ServiceFor(to), "Commit", wire.Args{
		"entities": []string{entity}, "tokens": []string{token},
		"action": action, "args": args, "nid": nid,
	}, &r); err != nil {
		t.Fatalf("Commit call: %v", err)
	}
	if len(r.Failed) > 1 {
		t.Fatalf("Commit reply = %+v, want at most one failure", r)
	}
	return r.code(0)
}

// TestProtocolRejectsMalformedLists: Mark refuses an empty entity (it
// would lock and record a pending mark on the bare "entity:" key), and
// Commit and Abort refuse entity/token lists of unequal length. Every
// row is a whole-call bad-args error with nothing marked.
func TestProtocolRejectsMalformedLists(t *testing.T) {
	h := newHarness(t, "a", "b")
	args := map[string]any{"meeting": "M"}
	for _, tc := range []struct {
		name, method string
		args         wire.Args
	}{
		{"mark empty entity", "Mark", wire.Args{"entities": []string{""}, "action": "reserve", "args": args, "nid": "N-1"}},
		{"mark empty entity in list", "Mark", wire.Args{"entities": []string{"s1", ""}, "action": "reserve", "args": args, "nid": "N-1"}},
		{"mark no entities", "Mark", wire.Args{"action": "reserve", "args": args, "nid": "N-1"}},
		{"mark no action", "Mark", wire.Args{"entities": []string{"s1"}, "args": args, "nid": "N-1"}},
		{"commit missing token", "Commit", wire.Args{"entities": []string{"s1"}, "action": "reserve", "args": args, "nid": "N-1"}},
		{"commit extra token", "Commit", wire.Args{"entities": []string{"s1"}, "tokens": []string{"t1", "t2"}, "action": "reserve", "args": args, "nid": "N-1"}},
		{"commit no entities", "Commit", wire.Args{"action": "reserve", "args": args, "nid": "N-1"}},
		{"abort missing token", "Abort", wire.Args{"entities": []string{"s1", "s2"}, "tokens": []string{"t1"}, "nid": "N-1"}},
		{"abort no entities", "Abort", wire.Args{"nid": "N-1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := h.nodes["a"].Engine.Invoke(ctxBg(), links.ServiceFor("b"), tc.method, tc.args, nil)
			if wire.CodeOf(err) != wire.CodeBadArgs {
				t.Fatalf("%s err = %v, want bad-args", tc.method, err)
			}
			if n := h.nodes["b"].Links.PendingMarks(); n != 0 {
				t.Fatalf("rejected %s left %d pending marks", tc.method, n)
			}
		})
	}
	// Nothing was locked: s1 is still free.
	if _, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
		Action: "reserve", Args: wire.Args{"meeting": "M"},
		Targets: refs("b", "s1"), Constraint: links.And,
	}); err != nil {
		t.Fatalf("negotiation after rejected calls: %v", err)
	}
}

// TestFaultInjectorsConsultedOncePerTarget: SetMarkFault and
// SetCommitFault each see every (nid, ref) exactly once, for a
// self-owned run, a singleton remote run and a co-located run alike,
// under And and Or; each remote node serves one Mark and one Commit.
func TestFaultInjectorsConsultedOncePerTarget(t *testing.T) {
	for _, c := range []links.Constraint{links.And, links.Or} {
		t.Run(string(c), func(t *testing.T) {
			h := newHarness(t, "a", "b", "c")
			lm := h.nodes["a"].Links
			var mu sync.Mutex
			seen := map[string]map[string]int{"mark": {}, "commit": {}}
			count := func(phase string) func(string, links.EntityRef) error {
				return func(nid string, ref links.EntityRef) error {
					mu.Lock()
					seen[phase][nid+" "+refKey(ref)]++
					mu.Unlock()
					return nil
				}
			}
			lm.SetMarkFault(count("mark"))
			lm.SetCommitFault(count("commit"))
			calls := countCalls(h, "a", "b", "c")
			targets := refs("a", "s1", "b", "s1", "c", "s1", "c", "s2")
			res, err := lm.Negotiate(ctxBg(), links.Spec{
				Action: "reserve", Args: wire.Args{"meeting": "M"},
				Targets: targets, Constraint: c, K: 1,
			})
			if err != nil || !res.OK {
				t.Fatalf("Negotiate = %+v, %v", res, err)
			}
			sameRefs(t, "Accepted", res.Accepted, targets)
			// The self-owned run stays in process: a serves no RPC.
			sameCalls(t, calls(), map[string]int{
				"links.b.Mark": 1, "links.b.Commit": 1,
				"links.c.Mark": 1, "links.c.Commit": 1,
			})
			for phase, got := range seen {
				if len(got) != len(targets) {
					t.Fatalf("%s fault saw %v, want each of %d targets once", phase, got, len(targets))
				}
				for _, ref := range targets {
					if n := got[res.NID+" "+refKey(ref)]; n != 1 {
						t.Fatalf("%s fault consulted %d times for %s, want 1 (saw %v)", phase, n, refKey(ref), got)
					}
				}
			}
		})
	}
}

// markDetail is the trace detail of ref's mark step.
func markDetail(t *testing.T, res *links.Result, ref string) string {
	t.Helper()
	for _, s := range res.Trace {
		if s.Phase == "mark" && s.Entity == ref {
			return s.Detail
		}
	}
	t.Fatalf("no mark step for %s in %+v", ref, res.Trace)
	return ""
}

// TestMarkRunFailuresSkipUnderAnd: under And, a faulted entry keeps
// every later entry of its run from being sent (skipped), and a Mark
// call that fails as a whole charges its first entry with the send
// error and skips the rest; under Or each unsent entry carries the send
// error. Marks already taken — self-owned ones included — are released.
func TestMarkRunFailuresSkipUnderAnd(t *testing.T) {
	t.Run("fault", func(t *testing.T) {
		h := newHarness(t, "a", "b")
		lm := h.nodes["a"].Links
		calls := countCalls(h, "b")
		lm.SetMarkFault(func(nid string, ref links.EntityRef) error {
			if refKey(ref) == "b/s2" {
				return &wire.RemoteError{Code: wire.CodeConflict, Msg: "injected veto"}
			}
			return nil
		})
		res, err := lm.Negotiate(ctxBg(), links.Spec{
			Action: "reserve", Args: wire.Args{"meeting": "M"},
			Targets: refs("a", "s1", "b", "s1", "b", "s2", "b", "s3"), Constraint: links.And,
		})
		if wire.CodeOf(err) != wire.CodeConflict {
			t.Fatalf("err = %v, want conflict", err)
		}
		sameRefs(t, "Rejected", res.Rejected, refs("b", "s2", "b", "s3"))
		if d := markDetail(t, res, "b/s3"); !strings.Contains(d, "skipped") {
			t.Fatalf("b/s3 detail = %q, want a skip", d)
		}
		sameCalls(t, calls(), map[string]int{"links.b.Mark": 1, "links.b.Abort": 1})
		lm.SetMarkFault(nil)
		if _, err := lm.Negotiate(ctxBg(), links.Spec{
			Action: "reserve", Args: wire.Args{"meeting": "M2"},
			Targets: refs("a", "s1", "b", "s1", "b", "s3"), Constraint: links.And,
		}); err != nil {
			t.Fatalf("aborted marks still held: %v", err)
		}
	})
	for _, c := range []links.Constraint{links.And, links.Or} {
		t.Run("down-"+string(c), func(t *testing.T) {
			h := newHarness(t, "a", "b", "c")
			h.net.SetDown("node-c", true)
			res, err := h.nodes["a"].Links.Negotiate(ctxBg(), links.Spec{
				Action: "reserve", Args: wire.Args{"meeting": "M"},
				Targets: refs("b", "s1", "c", "s1", "c", "s2"), Constraint: c, K: 1,
			})
			sameRefs(t, "Rejected", res.Rejected, refs("c", "s1", "c", "s2"))
			if d := markDetail(t, res, "c/s1"); strings.Contains(d, "skipped") {
				t.Fatalf("c/s1 detail = %q, want the send error", d)
			}
			skipped := strings.Contains(markDetail(t, res, "c/s2"), "skipped")
			if c == links.And {
				if wire.CodeOf(err) != wire.CodeConflict || !skipped {
					t.Fatalf("err = %v, c/s2 skipped = %v; want conflict and a skip", err, skipped)
				}
				if got := h.nodes["b"].status("s1"); got != "" {
					t.Fatalf("aborted And applied b/s1 = %q", got)
				}
				return
			}
			if err != nil || skipped {
				t.Fatalf("err = %v, c/s2 skipped = %v; want success and the send error", err, skipped)
			}
			if got := h.nodes["b"].status("s1"); got != "M" {
				t.Fatalf("Or did not apply b/s1: %q", got)
			}
		})
	}
}
