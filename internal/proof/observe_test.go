package proof

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestReadObserved(t *testing.T) {
	text := "1 2 0\n-1 0\n1 0\n"
	reg := obs.New()
	tr, err := ReadObserved(strings.NewReader(text), reg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("clauses = %d", tr.Len())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["proof.read.bytes"]; got != int64(len(text)) {
		t.Errorf("bytes = %d, want %d", got, len(text))
	}
	if got := snap.Counters["proof.read.clauses"]; got != 3 {
		t.Errorf("clauses counter = %d", got)
	}
	if snap.Counters["proof.read.ns"] <= 0 {
		t.Errorf("parse time = %d", snap.Counters["proof.read.ns"])
	}
	if snap.Spans == nil || len(snap.Spans.Children) != 1 || snap.Spans.Children[0].Name != "proof-read" {
		t.Errorf("spans = %+v", snap.Spans)
	}
}

func TestReadObservedNilRegistry(t *testing.T) {
	tr, err := ReadObserved(strings.NewReader("1 0\n-1 0\n"), nil)
	if err != nil || tr.Len() != 2 {
		t.Fatalf("%v, %d clauses", err, tr.Len())
	}
}
