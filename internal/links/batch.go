package links

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/trace"
	"repro/internal/wire"
)

// The §4.3 protocol on the wire. The coordinator groups a Spec's
// targets by owning node and drives each same-node run through one
// Mark, then one Commit or Abort. Every phase takes a list of entities
// (a single target is a list of one) and reports an outcome per entry,
// so every per-entity semantic survives:
//
//   - partial failures stay per entry: a failed entry carries its own
//     wire code, rebuilt coordinator-side into the *wire.RemoteError the
//     engine surfaces for a failed call, so transient/definitive
//     classification is the same as for a whole-call failure;
//   - decided-token idempotency: Commit runs the commitLocalToken
//     decision table per entry;
//   - fault injectors are consulted once per (nid, ref), in target
//     order, before the run is sent;
//   - a self-owned run executes in process and never touches the wire.
//
// Wire shape: entities and tokens travel as parallel []string lists
// (codec v3's native strings tag). A reply lists only the entries that
// failed; a Mark reply adds the granted tokens, aligned with the
// entities.

// errSkippedMark is the And-semantics skip: once any mark fails the
// constraint is doomed, so later targets are not marked at all.
var errSkippedMark = &wire.RemoteError{Code: wire.CodeConflict, Msg: "links: skipped after earlier mark failure"}

// entryFailure is one failed entry of a Mark or Commit reply; I indexes
// the request's entity list.
type entryFailure struct {
	I    int          `json:"i"`
	Code wire.ErrCode `json:"code"`
	Msg  string       `json:"msg"`
}

// runReply is the Mark/Commit reply. Tokens (Mark only) align with the
// request's entities, "" where the entry failed.
type runReply struct {
	Tokens []string       `json:"tokens,omitempty"`
	Failed []entryFailure `json:"failed,omitempty"`
}

// failuresOf converts per-entry errors to their wire form, the way the
// listener reports a failed call: a RemoteError keeps its code and bare
// message, anything else is internal.
func failuresOf(errs []error) []entryFailure {
	var out []entryFailure
	for i, err := range errs {
		if err == nil {
			continue
		}
		f := entryFailure{I: i, Code: wire.CodeInternal, Msg: err.Error()}
		var re *wire.RemoteError
		if errors.As(err, &re) {
			f.Code, f.Msg = re.Code, re.Msg
		}
		out = append(out, f)
	}
	return out
}

// entryErrs rebuilds the per-entry errors of a reply from user's
// method, aligned with n sent entities; nil when no entry failed.
func entryErrs(failed []entryFailure, n int, user, method string) ([]error, error) {
	if len(failed) == 0 {
		return nil, nil
	}
	errs := make([]error, n)
	for _, f := range failed {
		if f.I < 0 || f.I >= n {
			return nil, &wire.RemoteError{Code: wire.CodeInternal,
				Msg: fmt.Sprintf("links: %s reply names entry %d of %d", method, f.I, n)}
		}
		code := f.Code
		if code == wire.CodeOK || code == "" {
			code = wire.CodeInternal
		}
		errs[f.I] = &wire.RemoteError{Code: code, Service: ServiceFor(user), Method: method, Msg: f.Msg}
	}
	return errs, nil
}

// firstErr is the error a run's span records.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Participant side: the per-entry protocol behind the Mark, Commit and
// Abort handlers (service.go), also run in process for self-owned runs.

// markEntities marks each entity in order (markLocal). With stop set
// (And) every entry after the first failure is skipped, not marked. A
// mark granted to a remote coordinator (caller set, nid known) is
// recorded as pending, with the request's trace identity, so the
// participant can resolve it if neither Commit nor Abort arrives. errs
// is nil when every entry was marked.
func (m *Manager) markEntities(ctx context.Context, entities []string, action string, args wire.Args, nid, caller string, stop bool) (tokens []string, errs []error) {
	tokens = make([]string, len(entities))
	for i, entity := range entities {
		var err error
		if errs != nil && stop {
			err = errSkippedMark
		} else if tokens[i], err = m.markLocal(entity, action, args); err == nil {
			if nid != "" && caller != "" {
				p := &pendingMark{
					Token: tokens[i], Entity: entity, Action: action, Args: args,
					NID: nid, Coordinator: caller, Created: m.clk.Now(),
				}
				// Remember the request's trace so a later resolution
				// sweep stitches its spans under this Mark.
				if span := trace.FromContext(ctx); span != nil {
					p.TraceID, p.SpanID = span.TraceID, span.SpanID
				}
				m.notePendingMark(p)
			}
			continue
		}
		if errs == nil {
			errs = make([]error, len(entities))
		}
		errs[i] = err
	}
	return tokens, errs
}

// commitEntities runs the commitLocalToken decision table for each
// (entity, token) pair; errs is nil when every entry committed.
func (m *Manager) commitEntities(ctx context.Context, entities, tokens []string, nid, action string, args wire.Args, caller string) (errs []error) {
	for i, entity := range entities {
		if err := m.commitLocalToken(ctx, entity, tokens[i], nid, action, args, caller); err != nil {
			if errs == nil {
				errs = make([]error, len(entities))
			}
			errs[i] = err
		}
	}
	return errs
}

// ---------------------------------------------------------------------
// Coordinator side: phase 1.

// markRun marks one same-node run of targets: one Mark RPC, or an in
// process call when this node owns the run. stop carries the And
// semantics: after the first failure later entries are skipped, not
// marked.
func (m *Manager) markRun(ctx context.Context, nid string, run []EntityRef, action string, args wire.Args, stop bool) []markResult {
	user := run[0].User
	ctx, span := trace.Start(ctx, "links.Mark")
	if span != nil {
		span.Annotate(trace.String("node", user), trace.Int("targets", len(run)))
	}
	out := make([]markResult, len(run))
	entities := make([]string, 0, len(run))
	failed := false
	for i, ref := range run {
		out[i].ref = ref
		if failed && stop {
			out[i].err = errSkippedMark
		} else if out[i].err = m.markFaultFor(nid, ref); out[i].err != nil {
			failed = true
		} else {
			entities = append(entities, ref.Entity)
		}
	}
	var tokens []string
	var errs []error
	switch {
	case len(entities) == 0:
	case user == m.self:
		tokens, errs = m.markEntities(ctx, entities, action, args, "", "", stop)
	default:
		var reply runReply
		err := m.eng.Invoke(ctx, ServiceFor(user), "Mark", wire.Args{
			"entities": entities, "action": action, "args": map[string]any(args),
			"nid": nid, "stop": stop,
		}, &reply)
		if err == nil && len(reply.Tokens) != len(entities) {
			err = &wire.RemoteError{Code: wire.CodeInternal,
				Msg: fmt.Sprintf("links: Mark returned %d tokens for %d entities", len(reply.Tokens), len(entities))}
		}
		if err == nil {
			errs, err = entryErrs(reply.Failed, len(entities), user, "Mark")
		}
		if err != nil {
			// The call itself failed (unreachable node, timeout): the
			// first entry carries the error; with stop set the rest are
			// skips, without it each would have failed the same way.
			errs = make([]error, len(entities))
			for j := range errs {
				if j == 0 || !stop {
					errs[j] = err
				} else {
					errs[j] = errSkippedMark
				}
			}
		} else {
			tokens = reply.Tokens
		}
	}
	j := 0
	for i := range out {
		if out[i].err != nil {
			continue
		}
		switch {
		case errs != nil && errs[j] != nil:
			out[i].err = errs[j]
		case tokens[j] == "":
			out[i].err = &wire.RemoteError{Code: wire.CodeInternal, Service: ServiceFor(user), Method: "Mark",
				Msg: "links: Mark granted an empty token"}
		default:
			out[i].token = tokens[j]
		}
		j++
	}
	if span != nil {
		for _, mr := range out {
			if mr.err != nil {
				span.SetError(mr.err)
				break
			}
		}
		span.Finish()
	}
	return out
}

// ---------------------------------------------------------------------
// Coordinator side: phase 2.

// commitGrouped runs the commit phase for tgts, one run per owning
// node, node groups fanned out concurrently. The returned errors align
// with tgts.
func (m *Manager) commitGrouped(ctx context.Context, nid string, tgts []journalTarget, action string, args wire.Args, qos bool) []error {
	errs := make([]error, len(tgts))
	var wg sync.WaitGroup
	for _, idxs := range groupByUser(tgts) {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			run := make([]journalTarget, len(idxs))
			for j, i := range idxs {
				run[j] = tgts[i]
			}
			for j, err := range m.commitRun(ctx, nid, run, action, args, qos) {
				errs[idxs[j]] = err
			}
		}(idxs)
	}
	wg.Wait()
	return errs
}

// commitRun commits one same-node run of marked targets: one Commit
// RPC, or an in process call when this node owns the run. With qos set
// (the retry sweeper's path) the RPC rides engine.InvokeQoS so one
// sweep absorbs short transient blips; the inline attempt uses a plain
// Invoke, since a failure there is journaled, not blocking.
func (m *Manager) commitRun(ctx context.Context, nid string, run []journalTarget, action string, args wire.Args, qos bool) []error {
	user := run[0].Ref.User
	ctx, span := trace.Start(ctx, "links.Commit")
	if span != nil {
		span.Annotate(trace.String("node", user), trace.Int("targets", len(run)))
		if qos {
			span.Annotate(trace.Bool("redrive", true))
		}
	}
	out := make([]error, len(run))
	entities := make([]string, 0, len(run))
	tokens := make([]string, 0, len(run))
	for i, t := range run {
		if out[i] = m.commitFaultFor(nid, t.Ref); out[i] == nil {
			entities = append(entities, t.Ref.Entity)
			tokens = append(tokens, t.Token)
		}
	}
	var errs []error
	switch {
	case len(entities) == 0:
	case user == m.self:
		// Same protocol as a remote participant: duplicate ack,
		// stale-token rejection, and — crucial after a coordinator
		// restart wiped the in-memory lock table — the late commit that
		// re-locks and re-runs Check instead of applying blindly.
		errs = m.commitEntities(ctx, entities, tokens, nid, action, args, m.self)
	default:
		var reply runReply
		callArgs := wire.Args{
			"entities": entities, "tokens": tokens, "action": action,
			"args": map[string]any(args), "nid": nid,
		}
		var err error
		if qos {
			err = m.eng.InvokeQoS(ctx, commitQoS(m.tune()), ServiceFor(user), "Commit", callArgs, &reply)
		} else {
			err = m.eng.Invoke(ctx, ServiceFor(user), "Commit", callArgs, &reply)
		}
		if err == nil {
			errs, err = entryErrs(reply.Failed, len(entities), user, "Commit")
		}
		if err != nil {
			errs = make([]error, len(entities))
			for j := range errs {
				errs[j] = err
			}
		}
	}
	if errs != nil {
		j := 0
		for i := range out {
			if out[i] == nil {
				out[i] = errs[j]
				j++
			}
		}
	}
	span.FinishErr(firstErr(out))
	return out
}

// ---------------------------------------------------------------------
// Coordinator side: abort.

// abortMarked releases every successfully marked target, one Abort per
// node. Errors are ignored: an unreachable participant resolves the
// doubt itself via the pending-mark sweep.
func (m *Manager) abortMarked(ctx context.Context, nid string, marks []markResult) {
	var tgts []journalTarget
	for _, mr := range marks {
		if mr.err == nil {
			tgts = append(tgts, journalTarget{Ref: mr.ref, Token: mr.token})
		}
	}
	for _, idxs := range groupByUser(tgts) {
		run := make([]journalTarget, len(idxs))
		for j, i := range idxs {
			run[j] = tgts[i]
		}
		m.abortRun(ctx, nid, run)
	}
}

// abortRun releases one same-node run of marked targets without change:
// one Abort RPC, or plain unlocks when this node owns the run.
func (m *Manager) abortRun(ctx context.Context, nid string, run []journalTarget) {
	user := run[0].Ref.User
	ctx, span := trace.Start(ctx, "links.Abort")
	if span != nil {
		span.Annotate(trace.String("node", user), trace.Int("targets", len(run)))
		defer span.Finish()
	}
	if user == m.self {
		for _, t := range run {
			m.Locks.Unlock(lockKey(t.Ref.Entity), t.Token)
		}
		return
	}
	entities := make([]string, len(run))
	tokens := make([]string, len(run))
	for i, t := range run {
		entities[i], tokens[i] = t.Ref.Entity, t.Token
	}
	_ = m.eng.Invoke(ctx, ServiceFor(user), "Abort", wire.Args{
		"entities": entities, "tokens": tokens, "nid": nid,
	}, nil)
}

// groupByUser collects tgts indices into per-user groups, preserving
// first-seen order (And targets arrive user-major sorted, so groups
// are the contiguous runs; Or/Xor targets group across positions).
func groupByUser(tgts []journalTarget) [][]int {
	var order [][]int
	byUser := make(map[string]int, len(tgts))
	for i, t := range tgts {
		g, ok := byUser[t.Ref.User]
		if !ok {
			g = len(order)
			byUser[t.Ref.User] = g
			order = append(order, nil)
		}
		order[g] = append(order[g], i)
	}
	return order
}
