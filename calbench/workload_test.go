package main

import (
	"reflect"
	"testing"
)

// TestReadPlan checks the read preload: a third of every user's window
// busy, nobody booked twice at a slot, and the same seed giving the
// same plan.
func TestReadPlan(t *testing.T) {
	us := users(numNodes)
	plan := newReadWL(1, us, numClients).plan()
	busy := make(map[string]map[int]bool)
	for _, u := range us {
		busy[u] = make(map[int]bool)
	}
	for _, p := range plan {
		if len(p.must) > 2 || p.prio < 0 || p.prio > 3 {
			t.Fatalf("meeting %+v out of range", p)
		}
		for _, u := range append([]string{p.initiator}, p.must...) {
			if busy[u][p.slot] {
				t.Fatalf("%s booked twice at slot %d", u, p.slot)
			}
			busy[u][p.slot] = true
		}
	}
	want := int(float64(windowDays*slotsPerDay) * busyShare)
	for _, u := range us {
		if len(busy[u]) != want {
			t.Errorf("%s has %d busy slots, want %d", u, len(busy[u]), want)
		}
	}
	t.Logf("%d preload meetings", len(plan))
	if again := newReadWL(1, us, numClients).plan(); !reflect.DeepEqual(plan, again) {
		t.Fatal("same seed, different plan")
	}
	if other := newReadWL(2, us, numClients).plan(); reflect.DeepEqual(plan, other) {
		t.Fatal("different seeds, same plan")
	}
}
