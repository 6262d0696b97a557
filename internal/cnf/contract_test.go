package cnf_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/drat"
	"repro/internal/lrat"
	"repro/internal/proof"
)

// contractReader is one of the six formula and proof readers, seen through
// the input contract they share.
type contractReader struct {
	name string
	read func(io.Reader, cnf.ParseLimits) (any, error)
	// valid holds n clauses or steps, of at most 3 literals over 3
	// variables and at most 2 hints up to ID 5. It parses under the
	// smallest limits that admit it (tight); lowering any one field of
	// bounds by one trips that bound, under the name given.
	valid  []byte
	n      int
	bounds map[string]string // ParseLimits field -> LimitError.What
	// garbage inputs are all malformed.
	garbage [][]byte
	// overDefault inputs trip a default bound under zero limits.
	overDefault map[string][]byte // LimitError.What -> input
}

func contractReaders(t *testing.T) []contractReader {
	def := cnf.DefaultParseLimits()
	bigVar := def.MaxVars + 1
	bigID := def.MaxID + 1

	traceText := "1 -2 3 0\n-1 0\n"
	tr, err := proof.ReadString(traceText)
	if err != nil {
		t.Fatal(err)
	}
	var traceBin, bigVarTraceBin bytes.Buffer
	if err := proof.WriteBinary(&traceBin, tr); err != nil {
		t.Fatal(err)
	}
	bigTr := proof.New()
	bigTr.Resolutions = nil
	bigTr.Clauses = append(bigTr.Clauses, cnf.Clause{cnf.FromDimacs(-bigVar)})
	if err := proof.WriteBinary(&bigVarTraceBin, bigTr); err != nil {
		t.Fatal(err)
	}

	lratText := "4 1 -2 3 0 1 2 0\n4 d 1 0\n5 -1 0 4 3 0\n"
	lratBin := func(p *lrat.Proof) []byte {
		var b bytes.Buffer
		if err := lrat.WriteBinary(&b, p); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	lratProof, err := lrat.Read(strings.NewReader(lratText))
	if err != nil {
		t.Fatal(err)
	}
	bigVarStep := lrat.Step{ID: 4, C: cnf.Clause{cnf.FromDimacs(bigVar)}, Hints: []int64{1}}
	bigIDStep := lrat.Step{ID: 4, C: cnf.Clause{cnf.FromDimacs(1)}, Hints: []int64{bigID}}
	bigVarLRAT := fmt.Sprintf("4 %d 0 1 0\n", bigVar)
	bigIDLRAT := fmt.Sprintf("4 1 0 %d 0\n", bigID)

	clauseBounds := map[string]string{
		"MaxClauses": "clauses", "MaxClauseLen": "clause length", "MaxVars": "variables", "MaxBytes": "bytes",
	}
	lratBounds := map[string]string{
		"MaxClauses": "steps", "MaxClauseLen": "clause length", "MaxVars": "variables",
		"MaxHints": "hints", "MaxID": "id", "MaxBytes": "bytes",
	}
	return []contractReader{
		{
			name: "dimacs",
			read: func(r io.Reader, l cnf.ParseLimits) (any, error) { return cnf.ParseDimacsLimited(r, l) },
			// The header's counts are bounded too: it declares 3 variables
			// and 2 clauses.
			valid:       []byte("p cnf 3 2\n" + traceText),
			n:           2,
			bounds:      clauseBounds,
			garbage:     [][]byte{[]byte("p cnf x 1\n"), []byte("1 zz 0\n"), []byte("1 2\n"), []byte("p cnf 2 2\n1 0\n")},
			overDefault: map[string][]byte{"variables": []byte(fmt.Sprintf("p cnf 1 1\n-%d 0\n", bigVar))},
		},
		{
			name:        "trace",
			read:        func(r io.Reader, l cnf.ParseLimits) (any, error) { return proof.ReadLimited(r, l) },
			valid:       []byte(traceText),
			n:           2,
			bounds:      clauseBounds,
			garbage:     [][]byte{[]byte("1 zz 0\n"), []byte("1 2\n"), []byte("c res x\n1 0\n")},
			overDefault: map[string][]byte{"variables": []byte(fmt.Sprintf("-%d 0\n", bigVar))},
		},
		{
			name:        "binary trace",
			read:        func(r io.Reader, l cnf.ParseLimits) (any, error) { return proof.ReadBinaryLimited(r, l) },
			valid:       traceBin.Bytes(),
			n:           2,
			bounds:      clauseBounds,
			garbage:     [][]byte{[]byte("CCPX\x01\x00"), []byte("CCPF\x01\x00\x02"), []byte("CCPF\x01\x00\x80"), []byte("CCPF\x01\x00\x01\x00")},
			overDefault: map[string][]byte{"variables": bigVarTraceBin.Bytes()},
		},
		{
			name:        "drup",
			read:        func(r io.Reader, l cnf.ParseLimits) (any, error) { return drat.ReadLimited(r, l) },
			valid:       []byte("1 -2 3 0\nd 1 -2 3 0\n-1 0\n"),
			n:           3,
			bounds:      clauseBounds,
			garbage:     [][]byte{[]byte("1 zz 0\n"), []byte("1 2\n"), []byte("d 1\n")},
			overDefault: map[string][]byte{"variables": []byte(fmt.Sprintf("d -%d 0\n", bigVar))},
		},
		{
			name:        "lrat",
			read:        func(r io.Reader, l cnf.ParseLimits) (any, error) { return lrat.ReadLimited(r, l) },
			valid:       []byte(lratText),
			n:           3,
			bounds:      lratBounds,
			garbage:     [][]byte{[]byte("4 zz 0 1 0\n"), []byte("4 1 0 1\n"), []byte("0 1 0 1 0\n"), []byte("4 d -1 0\n")},
			overDefault: map[string][]byte{"variables": []byte(bigVarLRAT), "id": []byte(bigIDLRAT)},
		},
		{
			name:    "binary lrat",
			read:    func(r io.Reader, l cnf.ParseLimits) (any, error) { return lrat.ReadBinaryLimited(r, l) },
			valid:   lratBin(lratProof),
			n:       3,
			bounds:  lratBounds,
			garbage: [][]byte{[]byte("CLRX\x01\x00"), []byte("CLRT\x01\x00x"), []byte("CLRT\x01\x00a\x04\x02"), []byte("CLRT\x01\x00a\x00\x00\x00")},
			overDefault: map[string][]byte{"variables": lratBin(&lrat.Proof{Steps: []lrat.Step{bigVarStep}}),
				"id": lratBin(&lrat.Proof{Steps: []lrat.Step{bigIDStep}})},
		},
	}
}

// TestInputContract pins the contract every reader shares: each bound it
// honours, the byte budget among them, is exact and fails with a
// *cnf.LimitError under cnf.ErrLimit; garbage fails under cnf.ErrMalformed;
// and zero limits are cnf.DefaultParseLimits, field by field.
func TestInputContract(t *testing.T) {
	if got := (cnf.ParseLimits{}).WithDefaults(); got != cnf.DefaultParseLimits() {
		t.Fatalf("zero limits with defaults = %+v, want %+v", got, cnf.DefaultParseLimits())
	}
	for _, r := range contractReaders(t) {
		t.Run(r.name, func(t *testing.T) {
			tight := cnf.ParseLimits{MaxClauses: r.n, MaxClauseLen: 3, MaxVars: 3, MaxHints: 2, MaxID: 5,
				MaxBytes: int64(len(r.valid))}
			want, err := r.read(bytes.NewReader(r.valid), tight)
			if err != nil {
				t.Fatalf("valid input under tight limits %+v: %v", tight, err)
			}
			for _, lim := range []cnf.ParseLimits{{}, cnf.DefaultParseLimits()} {
				if got, err := r.read(bytes.NewReader(r.valid), lim); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("valid input under %+v: %v, %v; want %v", lim, got, err, want)
				}
			}
			for field, what := range r.bounds {
				lim := tight
				f := reflect.ValueOf(&lim).Elem().FieldByName(field)
				f.SetInt(f.Int() - 1)
				_, err := r.read(bytes.NewReader(r.valid), lim)
				var le *cnf.LimitError
				if !errors.As(err, &le) || !errors.Is(err, cnf.ErrLimit) || errors.Is(err, cnf.ErrMalformed) ||
					*le != (cnf.LimitError{What: what, Limit: f.Int()}) {
					t.Errorf("%s lowered to %d: err = %v, want the %s limit", field, f.Int(), err, what)
				}
			}
			for _, in := range r.garbage {
				if _, err := r.read(bytes.NewReader(in), cnf.ParseLimits{}); !errors.Is(err, cnf.ErrMalformed) || errors.Is(err, cnf.ErrLimit) {
					t.Errorf("garbage %q: err = %v, want cnf.ErrMalformed", in, err)
				}
			}
			def := cnf.DefaultParseLimits()
			for what, in := range r.overDefault {
				limit := int64(def.MaxVars)
				if what == "id" {
					limit = def.MaxID
				}
				_, err := r.read(bytes.NewReader(in), cnf.ParseLimits{})
				var le *cnf.LimitError
				if !errors.As(err, &le) || *le != (cnf.LimitError{What: what, Limit: limit}) {
					t.Errorf("over the default %s limit under zero limits: err = %v", what, err)
				}
			}
		})
	}
}
