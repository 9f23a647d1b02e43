package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/calendar"
	"repro/internal/wire"
)

// The calendar the workloads use: a 4-week window of 9 slots a day
// (calendar.DefaultHours, 09:00-17:00) from a fixed Monday.
const (
	windowDays  = 28
	slotsPerDay = 9
	firstHour   = 9
)

var baseDay = time.Date(2027, 3, 1, 0, 0, 0, 0, time.UTC)

func dayName(i int) string { return baseDay.AddDate(0, 0, i).Format("2006-01-02") }

// slotAt is slot i of the window (day-major).
func slotAt(i int) calendar.Slot {
	return calendar.Slot{Day: dayName(i / slotsPerDay), Hour: firstHour + i%slotsPerDay}
}

// users are the 8 node identities.
func users(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%d", i)
	}
	return out
}

// workload is one traffic mix. step runs one op of client c; it is
// only ever called from that client's goroutine.
type workload interface {
	// preload sets the deployment's initial state; it runs inside the
	// timed set-up.
	preload(ctx context.Context, d *driver) error
	step(ctx context.Context, d *driver, c int) opRec
	// sweepDays is how many days from the window start the final
	// SlotInfo sweep covers.
	sweepDays() int
	// ledger returns what the driver believes about every meeting it
	// set up, for the final sweep.
	ledger() *registry
	audit() *auditLog
}

// known is the driver's record of one meeting it set up.
type known struct {
	id, initiator string
	slot          calendar.Slot
	participants  []string
}

// registry holds every meeting the driver set up and which it has
// cancelled. Safe for concurrent use.
type registry struct {
	mu        sync.Mutex
	byID      map[string]known
	cancelled map[string]bool
}

func newRegistry() *registry {
	return &registry{byID: make(map[string]known), cancelled: make(map[string]bool)}
}

func (r *registry) add(m known) {
	r.mu.Lock()
	r.byID[m.id] = m
	r.mu.Unlock()
}

func (r *registry) cancel(id string) {
	r.mu.Lock()
	r.cancelled[id] = true
	r.mu.Unlock()
}

// scheduleArgs builds a Schedule request the way sydcal does.
func scheduleArgs(req calendar.Request) wire.Args {
	r := map[string]any{
		"title": req.Title, "must": req.Must, "priority": req.Priority,
	}
	if req.PinSlot {
		r["day"], r["hour"], r["pinSlot"] = req.Day, req.Hour, true
	} else {
		r["fromDay"], r["toDay"] = req.FromDay, req.ToDay
	}
	if req.AllowBump {
		r["allowBump"] = true
	}
	return wire.Args{"title": req.Title, "request": r}
}

func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}

// --- read -------------------------------------------------------------------

// readMix is the op mix of the read workload, as cumulative shares.
// The medians and p90s of the four kinds differ, so the shares keep
// the overall p50 inside the GetFreeSlots/1w mode and the p90 inside
// the ListMeetings mode instead of on a boundary between two modes.
var readMix = [...]struct {
	kind opKind
	upTo float64
}{{kSlotInfo, 0.35}, {kFree1w, 0.65}, {kFree4w, 0.85}, {kList, 1}}

// busyShare is the fraction of each user's window slots the preload
// fills.
const busyShare = 1.0 / 3

type holder struct {
	id   string
	prio int
}

// readWL preloads calendars through pinned Schedule calls and then
// checks every read against what the preload implies.
type readWL struct {
	seed  int64
	users []string
	reg   *registry
	log   auditLog
	rngs  []*rand.Rand

	// Expected state, written by preload and only read afterwards.
	busy     map[string][]holder           // user -> window slot -> holder ("" = free)
	meetings map[string][]calendar.Meeting // user -> meetings it takes part in, by id
}

func newReadWL(seed int64, us []string, clients int) *readWL {
	w := &readWL{seed: seed, users: us}
	for c := 0; c < clients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed*7919+int64(c)+1)))
	}
	return w
}

// plannedMeeting is one preload meeting: an initiator plus 0-2 musts
// at a pinned slot free for all of them.
type plannedMeeting struct {
	initiator string
	must      []string
	slot      int
	prio      int
}

// plan draws the preload from the seed: meetings of 1-3 participants
// until every user has a third of the window busy.
func (w *readWL) plan() []plannedMeeting {
	rng := rand.New(rand.NewSource(w.seed))
	total := windowDays * slotsPerDay
	target := int(float64(total) * busyShare)
	busy := make(map[string][]bool, len(w.users))
	count := make(map[string]int, len(w.users))
	for _, u := range w.users {
		busy[u] = make([]bool, total)
	}
	var out []plannedMeeting
	for {
		var open []string
		for _, u := range w.users {
			if count[u] < target {
				open = append(open, u)
			}
		}
		if len(open) == 0 {
			return out
		}
		rng.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
		k := rng.Intn(3)
		if k > len(open)-1 {
			k = len(open) - 1
		}
		people := open[:k+1]
		slot := -1
		for _, i := range rng.Perm(total) {
			free := true
			for _, u := range people {
				free = free && !busy[u][i]
			}
			if free {
				slot = i
				break
			}
		}
		if slot < 0 {
			people, slot = people[:1], firstFree(busy[people[0]])
		}
		for _, u := range people {
			busy[u][slot] = true
			count[u]++
		}
		out = append(out, plannedMeeting{
			initiator: people[0], must: append([]string(nil), people[1:]...),
			slot: slot, prio: rng.Intn(4),
		})
	}
}

func firstFree(b []bool) int {
	for i, v := range b {
		if !v {
			return i
		}
	}
	panic("calbench: preload plan over-filled a calendar") // target < total
}

func (w *readWL) preload(ctx context.Context, d *driver) error {
	w.reg = newRegistry()
	w.busy = make(map[string][]holder, len(w.users))
	w.meetings = make(map[string][]calendar.Meeting, len(w.users))
	for _, u := range w.users {
		w.busy[u] = make([]holder, windowDays*slotsPerDay)
	}
	plan := w.plan()
	got := make([]calendar.Meeting, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for c := 0; c < len(w.rngs); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(plan); i += len(w.rngs) {
				p := plan[i]
				s := slotAt(p.slot)
				args := scheduleArgs(calendar.Request{
					Title: fmt.Sprintf("preload-%d", i), Day: s.Day, Hour: s.Hour, PinSlot: true,
					Must: p.must, Priority: p.prio,
				})
				_, errs[i] = d.op(ctx, p.initiator, p.initiator, "Schedule", args, &got[i])
			}
		}(c)
	}
	wg.Wait()
	for i, p := range plan {
		m := got[i]
		if errs[i] != nil {
			return fmt.Errorf("preload meeting %d: %w", i, errs[i])
		}
		parts := append([]string{p.initiator}, p.must...)
		if m.Status != calendar.StatusConfirmed || m.Slot != slotAt(p.slot) || len(m.Reserved) != len(parts) {
			return fmt.Errorf("preload meeting %d: got %s at %v reserved %v, want confirmed at %v for %v",
				i, m.Status, m.Slot, m.Reserved, slotAt(p.slot), parts)
		}
		w.reg.add(known{id: m.ID, initiator: p.initiator, slot: m.Slot, participants: parts})
		for _, u := range parts {
			w.busy[u][p.slot] = holder{id: m.ID, prio: p.prio}
			w.meetings[u] = append(w.meetings[u], m)
		}
	}
	for _, ms := range w.meetings {
		sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	}
	return nil
}

func (w *readWL) sweepDays() int    { return windowDays }
func (w *readWL) ledger() *registry { return w.reg }
func (w *readWL) audit() *auditLog  { return &w.log }

// freeSlots is what GetFreeSlots over [from, from+days) must return.
func (w *readWL) freeSlots(user string, from, days int) []calendar.Slot {
	var out []calendar.Slot
	for i := from * slotsPerDay; i < (from+days)*slotsPerDay; i++ {
		if w.busy[user][i].id == "" {
			out = append(out, slotAt(i))
		}
	}
	return out
}

func (w *readWL) step(ctx context.Context, d *driver, c int) opRec {
	rng := w.rngs[c]
	u := w.users[rng.Intn(len(w.users))]
	x := rng.Float64()
	kind := kList
	for _, m := range readMix {
		if x < m.upTo {
			kind = m.kind
			break
		}
	}
	var took time.Duration
	var err error
	switch kind {
	case kSlotInfo:
		i := rng.Intn(windowDays * slotsPerDay)
		s := slotAt(i)
		var info calendar.SlotInfo
		took, err = d.op(ctx, "calbench", u, "SlotInfo", wire.Args{"day": s.Day, "hour": s.Hour}, &info)
		if want := w.busy[u][i]; err == nil && (info.Slot != s || info.Meeting != want.id || info.Priority != want.prio) {
			w.log.fail("SlotInfo %s %v = %+v, want %+v", u, s, info, want)
		}
	case kFree1w, kFree4w:
		from, days := rng.Intn(windowDays-7+1), 7
		if kind == kFree4w {
			from, days = 0, windowDays
		}
		var slots []calendar.Slot
		took, err = d.op(ctx, "calbench", u, "GetFreeSlots",
			wire.Args{"from": dayName(from), "to": dayName(from + days - 1)}, &slots)
		if want := w.freeSlots(u, from, days); err == nil && !equalSlots(slots, want) {
			w.log.fail("GetFreeSlots %s from day %d for %d days: %d slots, want %d", u, from, days, len(slots), len(want))
		}
	case kList:
		var ms []calendar.Meeting
		took, err = d.op(ctx, "calbench", u, "ListMeetings", nil, &ms)
		if err == nil {
			w.checkList(u, ms)
		}
	}
	out, ms := classify(took, err)
	if out != okConfirmed {
		w.log.fail("%s on %s: %v", kindNames[kind], u, err)
	}
	return opRec{kind: kind, ms: ms, outcome: out}
}

func (w *readWL) checkList(u string, got []calendar.Meeting) {
	want := w.meetings[u]
	if len(got) != len(want) {
		w.log.fail("ListMeetings %s: %d meetings, want %d", u, len(got), len(want))
		return
	}
	for i := range got {
		g, m := got[i], want[i]
		if g.ID != m.ID || g.Status != calendar.StatusConfirmed || g.Slot != m.Slot || g.Initiator != m.Initiator {
			w.log.fail("ListMeetings %s[%d] = %s %s %v by %s, want %s confirmed %v by %s",
				u, i, g.ID, g.Status, g.Slot, g.Initiator, m.ID, m.Slot, m.Initiator)
			return
		}
	}
}

func equalSlots(a, b []calendar.Slot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- schedule and contend ----------------------------------------------------

// meetingWL is the write workload: each client sets up meetings among
// its users and, once it holds cap live meetings, cancels its oldest
// each round. schedule gives each client its own users; contend gives
// both clients the same ones.
type meetingWL struct {
	days        int  // search window, from the window start
	cap         int  // live meetings a client holds
	maxPrio     int  // priorities drawn from 0..maxPrio
	allowBump   bool // a higher priority may take a held slot
	mustConfirm bool // every Schedule must come back confirmed

	clientUsers [][]string
	rngs        []*rand.Rand
	live        [][]known // per client, oldest first
	reg         *registry
	log         auditLog
}

func newScheduleWL(seed int64, us []string, clients int) *meetingWL {
	w := &meetingWL{days: 7, cap: 10, mustConfirm: true}
	per := len(us) / clients
	for c := 0; c < clients; c++ {
		w.clientUsers = append(w.clientUsers, us[c*per:(c+1)*per])
	}
	return w.init(seed, clients)
}

func newContendWL(seed int64, us []string, clients int) *meetingWL {
	w := &meetingWL{days: 2, cap: 3, maxPrio: 3, allowBump: true}
	for c := 0; c < clients; c++ {
		w.clientUsers = append(w.clientUsers, us[:4])
	}
	return w.init(seed, clients)
}

func (w *meetingWL) init(seed int64, clients int) *meetingWL {
	for c := 0; c < clients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed*7919+int64(c)+1)))
	}
	w.live = make([][]known, clients)
	return w
}

// preload starts every deployment with empty calendars.
func (w *meetingWL) preload(context.Context, *driver) error {
	w.reg = newRegistry()
	for c := range w.live {
		w.live[c] = nil
	}
	return nil
}

func (w *meetingWL) sweepDays() int    { return w.days }
func (w *meetingWL) ledger() *registry { return w.reg }
func (w *meetingWL) audit() *auditLog  { return &w.log }

func (w *meetingWL) step(ctx context.Context, d *driver, c int) opRec {
	if len(w.live[c]) >= w.cap {
		return w.cancelOldest(ctx, d, c)
	}
	rng := w.rngs[c]
	pool := w.clientUsers[c]
	pick := rng.Perm(len(pool))
	initiator, must := pool[pick[0]], []string{pool[pick[1]], pool[pick[2]]}
	req := calendar.Request{
		Title: "bench", FromDay: dayName(0), ToDay: dayName(w.days - 1),
		Must: must, AllowBump: w.allowBump,
	}
	if w.maxPrio > 0 {
		req.Priority = rng.Intn(w.maxPrio + 1)
	}
	var m calendar.Meeting
	took, err := d.op(ctx, initiator, initiator, "Schedule", scheduleArgs(req), &m)
	out, ms := classify(took, err)
	if out == okConfirmed && m.Status == calendar.StatusTentative {
		out = okTentative
	}
	if out == okConfirmed || out == okTentative {
		k := known{id: m.ID, initiator: initiator, slot: m.Slot, participants: append([]string{initiator}, must...)}
		w.reg.add(k)
		w.live[c] = append(w.live[c], k)
		if w.mustConfirm {
			w.checkConfirmed(m, k)
		}
	} else if w.mustConfirm {
		w.log.fail("Schedule by %s with %v: %v", initiator, must, err)
	}
	return opRec{kind: kSchedule, ms: ms, outcome: out}
}

// checkConfirmed is the schedule workload's per-reply audit.
func (w *meetingWL) checkConfirmed(m calendar.Meeting, k known) {
	inWindow := false
	for i := 0; i < w.days*slotsPerDay; i++ {
		inWindow = inWindow || slotAt(i) == m.Slot
	}
	reserved := true
	for _, u := range k.participants {
		reserved = reserved && contains(m.Reserved, u)
	}
	if m.Status != calendar.StatusConfirmed || !inWindow || !reserved {
		w.log.fail("Schedule %s: %s at %v reserved %v, want confirmed in window for %v",
			m.ID, m.Status, m.Slot, m.Reserved, k.participants)
	}
}

// cancelOldest cancels the client's oldest live meeting as its
// initiator. A failed cancel stays at the head of the ring and is
// retried next round, so occupancy stays bounded.
func (w *meetingWL) cancelOldest(ctx context.Context, d *driver, c int) opRec {
	k := w.live[c][0]
	took, err := d.op(ctx, k.initiator, k.initiator, "CancelMeeting", wire.Args{"meeting": k.id}, nil)
	out, ms := classify(took, err)
	if err == nil {
		w.live[c] = w.live[c][1:]
		w.reg.cancel(k.id)
	} else if w.mustConfirm {
		w.log.fail("CancelMeeting %s: %v", k.id, err)
	}
	return opRec{kind: kCancel, ms: ms, outcome: out}
}
