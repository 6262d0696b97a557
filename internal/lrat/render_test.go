package lrat

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// checkRenderers compares the recorder's three renderings with Write and
// WriteBinary of its Proof(): the same bytes, or the same error. Text must
// also fill a buffer of exactly its length.
func checkRenderers(t *testing.T, r *Recorder) {
	t.Helper()
	p, perr := r.Proof()
	var text, bin, gotText, gotBin bytes.Buffer
	if perr == nil {
		if err := Write(&text, p); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&bin, p); err != nil {
			t.Fatal(err)
		}
	}
	errText := r.WriteText(&gotText)
	errBin := r.WriteBinary(&gotBin)
	exact, errExact := r.Text()
	for _, got := range []struct {
		name      string
		err       error
		out, want []byte
	}{
		{"WriteText", errText, gotText.Bytes(), text.Bytes()},
		{"WriteBinary", errBin, gotBin.Bytes(), bin.Bytes()},
		{"Text", errExact, exact, text.Bytes()},
	} {
		switch {
		case perr != nil:
			if got.err == nil || got.err.Error() != perr.Error() {
				t.Errorf("%s: err %v, want Proof()'s %v", got.name, got.err, perr)
			}
		case got.err != nil:
			t.Errorf("%s: %v", got.name, got.err)
		case !bytes.Equal(got.out, got.want):
			t.Errorf("%s: %d bytes differ from the %d of writing Proof()", got.name, len(got.out), len(got.want))
		}
	}
	if perr == nil && cap(exact) != len(exact) {
		t.Errorf("Text: %d bytes in a buffer of %d", len(exact), cap(exact))
	}
}

func TestRecorderRenderersMatchProof(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// step records one step of a typical shape under id.
	step := func(r *Recorder, id int64, nlits, nhints int) {
		c := make(cnf.Clause, nlits)
		for i := range c {
			c[i] = cnf.FromDimacs((rng.Intn(5000) + 1) * (1 - 2*rng.Intn(2)))
		}
		hints := make([]int64, nhints)
		for i := range hints {
			hints[i] = rng.Int63n(1<<40) + 1
		}
		r.Record(id, c, hints)
	}
	// descending records ids hi down to lo, as the backward checkers do.
	descending := func(r *Recorder, hi, lo int64) {
		for id := hi; id >= lo; id-- {
			step(r, id, rng.Intn(8), rng.Intn(30))
		}
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) *Recorder
	}{
		{"empty", func(*testing.T) *Recorder { return new(Recorder) }},
		{"final-pair", func(*testing.T) *Recorder {
			// A trace that ends in a final pair records the empty clause,
			// the largest ID, after every other step.
			r := new(Recorder)
			descending(r, 3000, 11)
			r.Record(3002, nil, []int64{2999, 3000})
			return r
		}},
		{"decoded-then-recording", func(t *testing.T) *Recorder {
			// The restored piece is the checkpoint's blob; the steps after
			// it go into pieces of the recorder's own.
			r := new(Recorder)
			descending(r, 5000, 3001)
			restored, err := DecodeRecorder(r.Encode(nil))
			if err != nil {
				t.Fatal(err)
			}
			descending(restored, 3000, 11)
			if len(restored.enc) < 2 {
				t.Fatalf("%d pieces, want the decoded one and more", len(restored.enc))
			}
			return restored
		}},
		{"step-grows-piece", func(t *testing.T) *Recorder {
			// The 20,000-hint step is longer than the room a piece keeps
			// (at least 8 KiB), so it is appended to the current piece,
			// which grows.
			r := new(Recorder)
			descending(r, 1000, 901)
			step(r, 900, 3, 20000)
			descending(r, 899, 11)
			if cap(r.enc[0]) <= encPiece {
				t.Fatalf("first piece of %d bytes did not grow", cap(r.enc[0]))
			}
			return r
		}},
		{"decoded-deletion", func(t *testing.T) *Recorder {
			// Record writes no deletions, but a decoded blob may hold one.
			var b bytes.Buffer
			if err := WriteBinary(&b, &Proof{Steps: []Step{
				{ID: 7, C: mkClause(-3, 2), Hints: []int64{5, 1}},
				{ID: 6, Del: true, Deleted: []int64{2, 4}},
				{ID: 6, C: mkClause(1), Hints: []int64{3}},
			}}); err != nil {
				t.Fatal(err)
			}
			r, err := DecodeRecorder(b.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"duplicate-id", func(*testing.T) *Recorder {
			r := new(Recorder)
			descending(r, 40, 11)
			step(r, 25, 2, 3)
			return r
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRenderers(t, tc.build(t)) })
	}
}

// FuzzRecorderRender records a sequence of steps read from the input, with
// IDs in any order and duplicates allowed, restoring the recorder from its
// encoding after the step the first byte names (if any), and compares the
// renderers with writing Proof(). Only the first maxFuzzRender bytes are
// read: every byte costs a step's share of rendering, and the minimizer
// reruns an input once per byte.
func FuzzRecorderRender(f *testing.F) {
	f.Add([]byte{0, 9, 2, 3, 1, 0, 8, 1, 2, 0, 5, 7, 0, 0})
	f.Add([]byte{3, 4, 1, 1, 1, 4, 1, 2, 2})
	f.Add(append([]byte{17}, bytes.Repeat([]byte{0, 200, 7, 100, 3, 250, 1}, 20)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFuzzRender = 1 << 10
		if len(data) == 0 || len(data) > maxFuzzRender {
			return
		}
		restoreAt := -1
		if data[0]&1 == 1 {
			restoreAt = int(data[0] >> 1)
		}
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		r := new(Recorder)
		for i := 0; len(data) > 0; i++ {
			if i == restoreAt {
				restored, err := DecodeRecorder(r.Encode(nil))
				if err != nil {
					t.Fatalf("restoring %d steps: %v", r.Len(), err)
				}
				r = restored
			}
			id := int64(next()<<8|next()) + 1
			c := make(cnf.Clause, next()%6)
			for k := range c {
				c[k] = cnf.FromDimacs((next() + 1) * (1 - 2*(next()&1)))
			}
			hints := make([]int64, next()%10)
			for k := range hints {
				hints[k] = int64(next()<<16|next()) - 1<<15
				if hints[k] == 0 {
					hints[k] = 1
				}
			}
			r.Record(id, c, hints)
		}
		checkRenderers(t, r)
	})
}

// TestDecodeRecorderRejects feeds DecodeRecorder, which validates a resumed
// checkpoint's hint blob with the renderers' step walker, one garbled blob
// per rule: each must fail with the reader's typed errors.
func TestDecodeRecorderRejects(t *testing.T) {
	head := "CLRT\x01\x00"
	for _, tc := range []struct {
		name, blob string
		want       error
	}{
		{"short-header", "CLRT\x01", cnf.ErrMalformed},
		{"bad-magic", "CLRX\x01\x00", cnf.ErrMalformed},
		{"bad-version", "CLRT\x02\x00", cnf.ErrMalformed},
		{"bad-tag", head + "x\x04\x00\x00", cnf.ErrMalformed},
		{"id-0", head + "a\x00\x00\x00", cnf.ErrMalformed},
		{"truncated-clause", head + "a\x04\x02", cnf.ErrMalformed},
		{"truncated-hints", head + "a\x04\x02\x00\x02", cnf.ErrMalformed},
		{"literal-0", head + "a\x04\x01\x00\x00", cnf.ErrMalformed},
		{"hint-0", head + "a\x04\x00\x01\x00", cnf.ErrMalformed},
		// 4 in two bytes: accepted by binary.Uvarint, but copying these
		// bytes would not give appendBinaryStep's.
		{"non-minimal-uvarint", head + "a\x84\x00\x00\x00", cnf.ErrMalformed},
		{"overflowing-uvarint", head + "a" + strings.Repeat("\xff", 10) + "\x01\x00\x00", cnf.ErrMalformed},
		{"id-over-limit", head + "a\x80\x80\x80\x80\x80\x80\x01\x00\x00", cnf.ErrLimit},
		{"variable-over-limit", head + "a\x04\x80\x80\x80\x80\x02\x00\x00", cnf.ErrLimit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRecorder([]byte(tc.blob)); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}
