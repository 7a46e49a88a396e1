package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(0, -1, "pipeline", 0, 100),
		sp(1, 0, "preprocess.run", 10, 30),
		sp(2, 0, "assembler.ray", 30, 70),
		sp(3, 2, "seq.serialize", 60, 65),
		// Two overlapping children of the root: 80..95 is covered once.
		sp(4, 0, "gateway.trace", 80, 90),
		sp(5, 0, "gateway.proof", 85, 95),
	}
	want := []time.Duration{100 - 20 - 40 - 15, 20, 35, 5, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesClipsChildrenToParent(t *testing.T) {
	spans := []span{
		sp(0, -1, "cycle", 0, 50),
		sp(1, 0, "gateway.submit", 40, 70), // runs past its parent's end
	}
	if got := selfTimes(spans)[0]; got != 40 {
		t.Errorf("self(cycle) = %v, want 40", got)
	}
}

func TestLayerTotals(t *testing.T) {
	spans := []span{
		sp(0, -1, "pipeline", 0, 100),
		sp(1, 0, "assembler.ray", 0, 30),
		sp(2, 0, "assembler.ray", 30, 50),
		sp(3, 1, "mpi", 5, 10),
	}
	total, self := layerTotals(spans)
	if total["assembler.ray"] != 50 || self["assembler.ray"] != 45 {
		t.Errorf("assembler.ray total %v self %v, want 50 and 45", total["assembler.ray"], self["assembler.ray"])
	}
	if self["pipeline"] != 50 {
		t.Errorf("pipeline self %v, want 50", self["pipeline"])
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.begin("pipeline", -1, nil)
	child := r.begin("merge.run", root, map[string]string{"assembler": "ray"})
	r.end(child)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Attrs["assembler"] != "ray" {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if spans[0].dur() < spans[1].dur() || spans[1].End < spans[1].Start {
		t.Errorf("child %v outlasts root %v", spans[1].dur(), spans[0].dur())
	}
}
