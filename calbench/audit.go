package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/calendar"
	"repro/internal/wire"
)

// settleFor bounds how long the final sweep waits for the nodes to
// quiesce. Cancel cascades wake tentative meetings on detached 10 s
// contexts inside the nodes, so the state may keep moving that long
// after the last op returned.
const settleFor = 12 * time.Second

// sweepAll runs the final audit until it passes or settleFor elapses.
func sweepAll(ctx context.Context, d *driver, us []string, days int, reg *registry) error {
	deadline := time.Now().Add(settleFor)
	for {
		err := sweep(ctx, d, us, days, reg)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// sweep reads SlotInfo for every slot of the first days of the window
// on every node and checks that:
//   - a held slot is held by a live meeting whose slot it is, at one
//     of its participants (so no slot is held by two meetings);
//   - every live confirmed meeting holds its slot at every reserved
//     participant;
//   - no cancelled meeting holds any slot, and every cancel the driver
//     saw acknowledged left its meeting cancelled.
//
// Meeting records are read from the initiator, which owns them.
func sweep(ctx context.Context, d *driver, us []string, days int, reg *registry) error {
	var log auditLog
	n := days * slotsPerDay
	held := make(map[string][]string, len(us))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, u := range us {
		held[u] = make([]string, n)
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s := slotAt(i)
				var info calendar.SlotInfo
				if _, err := d.op(ctx, "calbench", u, "SlotInfo", wire.Args{"day": s.Day, "hour": s.Hour}, &info); err != nil {
					mu.Lock()
					firstErr = fmt.Errorf("sweep SlotInfo %s %v: %w", u, s, err)
					mu.Unlock()
					return
				}
				held[u][i] = info.Meeting
			}
		}(u)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	reg.mu.Lock()
	byID := make(map[string]known, len(reg.byID))
	for id, k := range reg.byID {
		byID[id] = k
	}
	cancelled := make(map[string]bool, len(reg.cancelled))
	for id := range reg.cancelled {
		cancelled[id] = true
	}
	reg.mu.Unlock()

	// A Schedule that missed its deadline may still have set up a
	// meeting the driver never heard of: learn its initiator from the
	// copy its participant holds.
	for _, u := range us {
		for _, id := range held[u] {
			if _, ok := byID[id]; ok || id == "" {
				continue
			}
			var m calendar.Meeting
			if _, err := d.op(ctx, "calbench", u, "GetMeeting", wire.Args{"meeting": id}, &m); err != nil {
				return fmt.Errorf("sweep: %s holds unknown meeting %s: %w", u, id, err)
			}
			byID[id] = known{id: id, initiator: m.Initiator, slot: m.Slot, participants: m.Participants()}
		}
	}
	records := make(map[string]calendar.Meeting, len(byID))
	for id, k := range byID {
		var m calendar.Meeting
		if _, err := d.op(ctx, "calbench", k.initiator, "GetMeeting", wire.Args{"meeting": id}, &m); err != nil {
			return fmt.Errorf("sweep GetMeeting %s at %s: %w", id, k.initiator, err)
		}
		records[id] = m
		if cancelled[id] && m.Status != calendar.StatusCancelled {
			log.fail("meeting %s: cancel was acknowledged but it is %s", id, m.Status)
		}
	}

	index := make(map[calendar.Slot]int, n)
	for i := 0; i < n; i++ {
		index[slotAt(i)] = i
	}
	for _, u := range us {
		for i, id := range held[u] {
			if id == "" {
				continue
			}
			m := records[id]
			switch {
			case m.Status == calendar.StatusCancelled:
				log.fail("%s %v held by cancelled meeting %s", u, slotAt(i), id)
			case m.Slot != slotAt(i):
				log.fail("%s %v held by meeting %s, whose slot is %v", u, slotAt(i), id, m.Slot)
			case !contains(m.Participants(), u):
				log.fail("%s %v held by meeting %s, which %s is not part of", u, slotAt(i), id, u)
			}
		}
	}
	for id, m := range records {
		if m.Status != calendar.StatusConfirmed {
			continue
		}
		i, ok := index[m.Slot]
		if !ok {
			log.fail("confirmed meeting %s at %v lies outside the swept window", id, m.Slot)
			continue
		}
		for _, r := range m.Reserved {
			if held[r] == nil || held[r][i] != id {
				log.fail("confirmed meeting %s does not hold %v at reserved participant %s", id, m.Slot, r)
			}
		}
	}
	return log.err()
}
