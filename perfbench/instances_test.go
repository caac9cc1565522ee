package main

import (
	"testing"
	"time"

	"kset/internal/types"
)

// TestDecideClock pins the decide observer's bookkeeping: only a node's own
// row stamps, a repeated row keeps its first stamp, ids outside the run are
// ignored, and done closes once every node has decided every instance.
func TestDecideClock(t *testing.T) {
	const ids = firstInstance + 2 // the probe and one measured instance
	d := newDecideClock(2, ids)
	obs := []func(uint64, types.ProcessID, types.Value){d.observer(0), d.observer(1)}

	obs[0](firstInstance, 1, 7)   // node 0 recording node 1's row: not its own
	obs[0](ids, 0, 7)             // outside the run
	obs[0](firstInstance-1, 0, 7) // before the probe
	if _, ok := d.decided(firstInstance); ok {
		t.Fatal("decided from rows that are not the nodes' own")
	}
	obs[0](firstInstance, 0, 7)
	obs[1](firstInstance, 1, 7)
	at, ok := d.decided(firstInstance)
	if !ok || at <= 0 {
		t.Fatalf("decided(probe) = %v, %v; want a positive stamp", at, ok)
	}
	time.Sleep(time.Millisecond)
	obs[1](firstInstance, 1, 7) // a repeat must not move the stamp
	if again, _ := d.decided(firstInstance); again != at {
		t.Errorf("repeated row moved the stamp from %v to %v", at, again)
	}
	select {
	case <-d.done:
		t.Fatal("done closed with an instance undecided")
	default:
	}
	obs[0](firstInstance+1, 0, 7)
	obs[1](firstInstance+1, 1, 7)
	d.wait(time.Now().Add(time.Second))
	select {
	case <-d.done:
	default:
		t.Fatal("done still open after every node decided every instance")
	}
}
