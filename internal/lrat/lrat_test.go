package lrat

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cnf"
)

func mkClause(dimacs ...int) cnf.Clause {
	c := make(cnf.Clause, 0, len(dimacs))
	for _, d := range dimacs {
		c = append(c, cnf.FromDimacs(d))
	}
	return c
}

func sampleProof() *Proof {
	return &Proof{Steps: []Step{
		{ID: 4, C: mkClause(2), Hints: []int64{1, 2}},
		{ID: 5, Del: true, Deleted: []int64{2}},
		{ID: 6, C: nil, Hints: []int64{4, 3}},
	}}
}

func TestTextRoundTrip(t *testing.T) {
	p := sampleProof()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(p), normalize(got)) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p.Steps, got.Steps)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	p := sampleProof()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, p); err != nil {
		t.Fatal(err)
	}
	// The bytes are pinned: checkpoint payloads embed them.
	if want := "CLRT\x01\x00a\x04\x04\x00\x02\x04\x00d\x05\x02\x00a\x06\x00\b\x06\x00"; buf.String() != want {
		t.Fatalf("binary bytes %q, want %q", buf.String(), want)
	}
	if !DetectBinary(buf.Bytes()) {
		t.Fatal("binary output not detected as binary")
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(p), normalize(got)) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p.Steps, got.Steps)
	}
}

// normalize maps nil and empty slices to a comparable shape.
func normalize(p *Proof) []Step {
	out := make([]Step, len(p.Steps))
	for i, s := range p.Steps {
		if len(s.C) == 0 {
			s.C = nil
		}
		if len(s.Hints) == 0 {
			s.Hints = nil
		}
		if len(s.Deleted) == 0 {
			s.Deleted = nil
		}
		out[i] = s
	}
	return out
}

func TestTextComments(t *testing.T) {
	in := "c a comment line\n4 2 0 1 2 0\nc another\n5 0 4 3 0\n"
	p, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 || p.Steps[0].ID != 4 || p.Steps[1].ID != 5 {
		t.Fatalf("got %+v", p.Steps)
	}
}

func TestTextNegativeHintsAccepted(t *testing.T) {
	// RAT hints are negative; parsers keep them so foreign proofs round-trip.
	p, err := Read(strings.NewReader("4 1 0 -2 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Steps[0].Hints, []int64{-2, 3}) {
		t.Fatalf("hints %v", p.Steps[0].Hints)
	}
}

func TestTextMalformed(t *testing.T) {
	for _, in := range []string{
		"x 1 0 1 0\n",  // bad id
		"-4 1 0 1 0\n", // negative id
		"0 1 0 1 0\n",  // zero id
		"4 1 0 1\n",    // unterminated hints
		"4 1\n",        // unterminated clause
		"4\n",          // truncated after id
		"4 d 1\n",      // unterminated deletion
		"4 d -1 0\n",   // negative deleted id
		"4 y 0\n",      // bad literal token
	} {
		if _, err := Read(strings.NewReader(in)); !errors.Is(err, cnf.ErrMalformed) {
			t.Errorf("%q: got %v, want cnf.ErrMalformed", in, err)
		}
	}
}

func TestTextLimits(t *testing.T) {
	cases := []struct {
		in   string
		lim  cnf.ParseLimits
		what string
	}{
		{"4 1 0 1 0\n5 2 0 1 0\n", cnf.ParseLimits{MaxClauses: 1}, "steps"},
		{"4 1 2 3 0 1 0\n", cnf.ParseLimits{MaxClauseLen: 2}, "clause length"},
		{"4 1 0 1 2 3 0\n", cnf.ParseLimits{MaxHints: 2}, "hints"},
		{"4 99 0 1 0\n", cnf.ParseLimits{MaxVars: 10}, "variables"},
		{"400 1 0 1 0\n", cnf.ParseLimits{MaxID: 100}, "id"},
		{"4 1 0 900 0\n", cnf.ParseLimits{MaxID: 100}, "id"},
		{"4 d 900 0\n", cnf.ParseLimits{MaxID: 100}, "id"},
		{"4 1 0 1 0\n5 2 0 1 0\n", cnf.ParseLimits{MaxBytes: 12}, "bytes"},
	}
	for _, tc := range cases {
		_, err := ReadLimited(strings.NewReader(tc.in), tc.lim)
		if !errors.Is(err, cnf.ErrLimit) {
			t.Errorf("%q lim %+v: got %v, want cnf.ErrLimit", tc.in, tc.lim, err)
			continue
		}
		var le *cnf.LimitError
		if !errors.As(err, &le) || le.What != tc.what {
			t.Errorf("%q: got %v, want %s limit", tc.in, err, tc.what)
		}
	}
}

func TestBinaryMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleProof()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"bad magic":    append([]byte("XLRT"), good[4:]...),
		"bad version":  append(append([]byte(nil), good[0:4]...), append([]byte{99}, good[5:]...)...),
		"bad flags":    append(append([]byte(nil), good[0:5]...), append([]byte{1}, good[6:]...)...),
		"truncated":    good[:len(good)-1],
		"bad step tag": append(append([]byte(nil), good...), 'x'),
		"empty":        nil,
	}
	for name, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); !errors.Is(err, cnf.ErrMalformed) {
			t.Errorf("%s: got %v, want cnf.ErrMalformed", name, err)
		}
	}
}

// TestBinaryRejectsPaddedUvarint: binary LRAT has one step decoder, so a
// uvarint with a needless 0 byte on the end is malformed wherever the bytes
// are read — by the reader, by Validate (at its parse stage) and by the
// recorder — in every field of a step.
func TestBinaryRejectsPaddedUvarint(t *testing.T) {
	f := chainFormula()
	for field, step := range map[string]string{
		"step id":  "a\x84\x00\x00\x02\x04\x00",
		"clause":   "a\x04\x82\x00\x00\x02\x04\x00",
		"hints":    "a\x04\x00\x82\x00\x04\x00",
		"deletion": "d\x04\x81\x00\x00",
	} {
		in := "CLRT\x01\x00" + step
		want := "malformed input: " + field + ": uvarint not minimally encoded"
		_, err := ReadBinary(strings.NewReader(in))
		if !errors.Is(err, cnf.ErrMalformed) || err.Error() != want {
			t.Errorf("%s: ReadBinary: %v, want %q", field, err, want)
		}
		var ve *ValidationError
		if _, err := Validate(f, []byte(in), cnf.ParseLimits{}, Options{}); !errors.As(err, &ve) ||
			ve.Stage != "parse" || ve.Reason != want {
			t.Errorf("%s: Validate: %v, want a parse-stage rejection", field, err)
		}
		if _, err := DecodeRecorder([]byte(in)); !errors.Is(err, cnf.ErrMalformed) || err.Error() != want {
			t.Errorf("%s: DecodeRecorder: %v, want %q", field, err, want)
		}
		// The same step minimally encoded is read.
		canon := strings.NewReplacer("\x84\x00", "\x04", "\x82\x00", "\x02", "\x81\x00", "\x01").Replace(in)
		if _, err := ReadBinary(strings.NewReader(canon)); err != nil {
			t.Errorf("%s: minimal encoding %q: %v", field, canon, err)
		}
	}
}

func TestBinaryLimits(t *testing.T) {
	big := &Proof{Steps: []Step{
		{ID: 4, C: mkClause(1, 2, 3), Hints: []int64{1}},
		{ID: 5, C: mkClause(1), Hints: []int64{1, 2, 3, 4}},
	}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, big); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lim  cnf.ParseLimits
		what string
	}{
		{cnf.ParseLimits{MaxClauses: 1}, "steps"},
		{cnf.ParseLimits{MaxClauseLen: 2}, "clause length"},
		{cnf.ParseLimits{MaxHints: 2}, "hints"},
		{cnf.ParseLimits{MaxVars: 2}, "variables"},
		{cnf.ParseLimits{MaxID: 4}, "id"},
		{cnf.ParseLimits{MaxBytes: 8}, "bytes"},
	} {
		_, err := ReadBinaryLimited(bytes.NewReader(buf.Bytes()), tc.lim)
		var le *cnf.LimitError
		if !errors.Is(err, cnf.ErrLimit) || !errors.As(err, &le) || le.What != tc.what {
			t.Errorf("lim %+v: got %v, want %s limit", tc.lim, err, tc.what)
		}
	}
}

func TestDetectBinary(t *testing.T) {
	if DetectBinary([]byte("4 2 0 1 2 0\n")) {
		t.Error("text misdetected as binary")
	}
	if DetectBinary([]byte("CLR")) {
		t.Error("short prefix misdetected")
	}
}

func TestRecorderSortsAndRoundTrips(t *testing.T) {
	var r Recorder
	// Backward checkers record in descending ID order.
	r.Record(6, nil, []int64{4, 3})
	r.Record(4, mkClause(2), []int64{1, 2})
	if r.Len() != 2 {
		t.Fatalf("Len %d", r.Len())
	}
	p, err := r.Proof()
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].ID != 4 || p.Steps[1].ID != 6 {
		t.Fatalf("not sorted: %+v", p.Steps)
	}

	restored, err := DecodeRecorder(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := restored.Proof()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(p), normalize(p2)) {
		t.Fatalf("recorder round trip mismatch:\n%+v\n%+v", p.Steps, p2.Steps)
	}
}

// TestRecorderEncodeIsIncremental checks that Encode, which reads the
// encoding Record extends step by step, gives WriteBinary's bytes for all
// the steps at every call: before any step, across piece boundaries, after
// a call with nothing new, and on a recorder restored by DecodeRecorder that
// goes on recording.
func TestRecorderEncodeIsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var r Recorder
	var steps []Step
	record := func(rec *Recorder, n int) {
		for range n {
			id := int64(len(steps) + 1)
			c := make(cnf.Clause, rng.Intn(12))
			for i := range c {
				c[i] = cnf.FromDimacs((rng.Intn(5000) + 1) * (1 - 2*rng.Intn(2)))
			}
			hints := make([]int64, rng.Intn(300))
			for i := range hints {
				hints[i] = rng.Int63n(1<<40) + 1
			}
			rec.Record(id, c, hints)
			steps = append(steps, Step{ID: id, C: c, Hints: hints})
		}
	}
	want := func() []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, &Proof{Steps: steps}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(rec *Recorder, when string) {
		t.Helper()
		got := rec.Encode([]byte("prefix"))
		if w := want(); string(got) != "prefix"+string(w) || rec.EncodedLen() != len(w) {
			t.Fatalf("%s: %d encoded bytes (EncodedLen %d) differ from WriteBinary's %d",
				when, len(got)-len("prefix"), rec.EncodedLen(), len(w))
		}
	}
	check(&r, "empty")
	for _, n := range []int{1, 0, 40, 300, 2} {
		record(&r, n)
		check(&r, fmt.Sprintf("after %d steps", len(steps)))
	}
	if r.EncodedLen() < 2*encPiece {
		t.Fatalf("only %d bytes encoded: no piece boundary crossed", r.EncodedLen())
	}
	restored, err := DecodeRecorder(r.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	check(restored, "decoded")
	record(restored, 25)
	check(restored, "decoded, then extended")
}

// TestRecorderAllocatesPerPiece records 4,096 steps of a typical shape (a
// few literals, about ten hints) into a fresh recorder: the recorder may
// allocate for its pieces of encoding, and a few times besides, but never
// per step.
func TestRecorderAllocatesPerPiece(t *testing.T) {
	const steps = 4096
	c := mkClause(3, -17, 250, -4000)
	hints := []int64{12, 7, 9001, 455, 31, 2, 88, 1020, 64, 5}
	var pieces int
	allocs := testing.AllocsPerRun(5, func() {
		var r Recorder
		for i := range steps {
			r.Record(int64(100_000-i), c, hints)
		}
		// A piece is at least 7/8 full before the next one starts.
		pieces = (r.EncodedLen() + encPiece*7/8 - 1) / (encPiece * 7 / 8)
	})
	t.Logf("%d steps: %.0f allocations, %d pieces", steps, allocs, pieces)
	if allocs > float64(pieces+4) {
		t.Fatalf("%d steps allocated %.0f times for %d pieces", steps, allocs, pieces)
	}
}

func TestRecorderDuplicateID(t *testing.T) {
	var r Recorder
	r.Record(4, mkClause(1), []int64{1})
	r.Record(4, mkClause(2), []int64{2})
	if _, err := r.Proof(); err == nil {
		t.Fatal("duplicate id not reported")
	}
}

func TestRecorderIsolatesCallerBuffers(t *testing.T) {
	var r Recorder
	c := mkClause(1, 2)
	h := []int64{1, 2}
	r.Record(4, c, h)
	c[0] = cnf.FromDimacs(9)
	h[0] = 99
	p, err := r.Proof()
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[0].C[0] != cnf.FromDimacs(1) || p.Steps[0].Hints[0] != 1 {
		t.Fatal("recorder aliased caller buffers")
	}
}

// TestTextSeparators: fields are separated by any white space — \v, \f and
// Unicode blanks as well as spaces, tabs and line ends — and a field
// starting with 'c' comments out the rest of its line wherever it stands.
func TestTextSeparators(t *testing.T) {
	p, err := Read(strings.NewReader("4\v2 0 1\f2 0 c tail\r\n5 d\t4 0\n6 0 4 3 0"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Proof{Steps: []Step{
		{ID: 4, C: mkClause(2), Hints: []int64{1, 2}},
		{ID: 5, Del: true, Deleted: []int64{4}},
		{ID: 6, Hints: []int64{4, 3}},
	}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("got %+v, want %+v", p.Steps, want.Steps)
	}
}

// TestTextMinInt64Literal: -2^63 is out of every variable bound. Negating it
// overflows, so a bound checked as -d > MaxVars let it through, to become
// the undefined literal.
func TestTextMinInt64Literal(t *testing.T) {
	_, err := Read(strings.NewReader("4 -9223372036854775808 0 1 0\n"))
	var le *cnf.LimitError
	if !errors.As(err, &le) || le.What != "variables" {
		t.Fatalf("err = %v, want the variables limit", err)
	}
}

// TestReadStepsDoNotAlias: clauses, hints and deleted IDs share slabs, but
// appending to one step's slice must not overwrite the next step's.
func TestReadStepsDoNotAlias(t *testing.T) {
	text := "4 1 2 0 1 2 0\n5 d 1 2 0\n6 3 0 4 5 0\n"
	var bin bytes.Buffer
	p, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, p); err != nil {
		t.Fatal(err)
	}
	pb, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Proof{"text": p, "binary": pb} {
		want := normalize(p)
		for i := range want {
			s := &want[i]
			s.C, s.Hints, s.Deleted = slices.Clone(s.C), slices.Clone(s.Hints), slices.Clone(s.Deleted)
		}
		for _, s := range p.Steps {
			_ = append(s.C, cnf.FromDimacs(9))
			_ = append(s.Hints, 99)
			_ = append(s.Deleted, 99)
		}
		if got := normalize(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: appending to a step changed its neighbours:\n%+v\nwant\n%+v", name, got, want)
		}
	}
}

// blanks is an endless run of one byte.
type blanks struct{ b byte }

func (r blanks) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.b
	}
	return len(p), nil
}

// TestReadLineLongerThan64MiB: the text reader has no line-length cap. A
// valid proof with a comment line and a step line longer than 64 MiB must
// parse, not fail as a scanner capped at 1<<26 bytes per token did.
func TestReadLineLongerThan64MiB(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 130 MiB")
	}
	const pad = 65 << 20
	in := io.MultiReader(
		strings.NewReader("4 2 0 1 2 0\nc"),
		io.LimitReader(blanks{'x'}, pad),
		strings.NewReader("\n5 0"),
		io.LimitReader(blanks{' '}, pad),
		strings.NewReader("4 3 0\n"),
	)
	got, err := Read(in)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := &Proof{Steps: []Step{{ID: 4, C: mkClause(2), Hints: []int64{1, 2}}, {ID: 5, Hints: []int64{4, 3}}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got.Steps, want.Steps)
	}
}

// TestReadAllocsBounded: steps are carved from shared slabs, so allocations
// grow with the slab count, not with the number of tokens.
func TestReadAllocsBounded(t *testing.T) {
	for _, n := range []int{10_000, 40_000} {
		p := &Proof{}
		for i := 0; i < n; i++ {
			id := int64(1000 + i)
			if i%4 == 3 {
				p.Steps = append(p.Steps, Step{ID: id, Del: true, Deleted: []int64{id - 1, id - 2}})
				continue
			}
			p.Steps = append(p.Steps, Step{ID: id, C: mkClause(i%900+1, -(i%700 + 1)), Hints: []int64{id - 1, id - 2, id - 3}})
		}
		var text, bin bytes.Buffer
		if err := Write(&text, p); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&bin, p); err != nil {
			t.Fatal(err)
		}
		tokens := 6 * n
		for name, read := range map[string]func() (*Proof, error){
			"text":   func() (*Proof, error) { return Read(bytes.NewReader(text.Bytes())) },
			"binary": func() (*Proof, error) { return ReadBinary(bytes.NewReader(bin.Bytes())) },
		} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := read(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > float64(tokens)/1000 {
				t.Errorf("%s, %d steps: %.0f allocations for %d tokens", name, n, allocs, tokens)
			}
		}
	}
}
