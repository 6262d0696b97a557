// Package journal is the crash-safety backbone of the verification
// pipeline: a checkpoint file that makes long verification runs resumable
// after a SIGKILL, OOM-kill, or node preemption.
//
// The paper's Proof_verification1/2 are strictly ordered scans over F*; on
// industrial traces they run for minutes to hours, and the scan has natural
// clause-granular boundaries at which all verifier state is a small record:
// the verified suffix boundary, the marked-clause/core bitmaps, and the
// budget counters. A resume only ever needs the newest such record, so the
// file holds exactly one: every Write atomically replaces it (temp file,
// fsync, rename, directory fsync; see internal/atomicio), and a crash leaves
// either the old record or the new one, never a torn file. A resume
// validates the file — magic, version, one CRC over header and payload, and
// fingerprints of the CNF formula and the proof — and any mismatch
// (truncation, corruption, stale fingerprint, version skew) degrades to a
// full re-verification rather than ever trusting a questionable file.
//
// The journal stores the payload opaquely; the verifier (internal/core)
// defines the payload encoding, so the journal has no dependency on it.
//
// File layout (all integers little-endian):
//
//	header:  "DPVJ" | version u32 | mode u8 | engine u8 | pad u16 (zero) |
//	         interval u32 | formulaFP u64 | proofFP u64 | payload length u64
//	payload
//	crc32 u32 over the header and the payload
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicio"
	"repro/internal/obs"
)

// Magic identifies a checkpoint journal.
const Magic = "DPVJ"

// Version is the current journal format version. Readers reject any other
// version (resume then falls back to a full run).
const Version = 2

// HeaderSize is the byte length of the journal header.
const HeaderSize = 40

// Meta pins a journal to one exact verification setup. Every field
// participates in resume validation: the checkpoint grid (and hence the
// bit-for-bit determinism argument for resumed runs) depends on the mode,
// engine and interval, and the fingerprints tie the journal to one
// formula/proof pair.
type Meta struct {
	Mode     uint8
	Engine   uint8
	Interval uint32
	// FormulaFP and ProofFP fingerprint the CNF formula and the proof
	// (FingerprintFormula, and FingerprintTrace or a DRUP proof's own
	// fingerprint).
	FormulaFP uint64
	ProofFP   uint64
}

// Typed validation failures. All of them mean "do not resume; run from
// scratch" — they are ordinary degraded-mode outcomes, not verifier errors.
var (
	// ErrNoJournal: the journal file does not exist.
	ErrNoJournal = errors.New("journal: no journal file")
	// ErrCorrupt: the file is truncated or fails its CRC or structural
	// checks.
	ErrCorrupt = errors.New("journal: corrupt journal")
	// ErrVersionSkew: the journal was written by a different format version.
	ErrVersionSkew = errors.New("journal: version skew")
	// ErrMismatch: the journal belongs to a different formula/proof pair or
	// a different verification configuration.
	ErrMismatch = errors.New("journal: metadata mismatch")
)

// Encode writes meta and payload to w in the file layout: the header, the
// payload and the CRC in turn, copying nothing.
func Encode(w io.Writer, meta Meta, payload []byte) error {
	var h [HeaderSize]byte
	copy(h[:], Magic)
	binary.LittleEndian.PutUint32(h[4:], Version)
	h[8] = meta.Mode
	h[9] = meta.Engine
	binary.LittleEndian.PutUint32(h[12:], meta.Interval)
	binary.LittleEndian.PutUint64(h[16:], meta.FormulaFP)
	binary.LittleEndian.PutUint64(h[24:], meta.ProofFP)
	binary.LittleEndian.PutUint64(h[32:], uint64(len(payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Update(crc32.ChecksumIEEE(h[:]), crc32.IEEETable, payload))
	for _, b := range [][]byte{h[:], payload, crc[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Decode validates the bytes of a journal file and returns its meta and
// payload. The payload is a slice of data, not a copy.
func Decode(data []byte) (Meta, []byte, error) {
	var m Meta
	if len(data) < HeaderSize+4 {
		return m, nil, fmt.Errorf("%w: truncated file (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:4]) != Magic {
		return m, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return m, nil, fmt.Errorf("%w: journal version %d, reader version %d", ErrVersionSkew, v, Version)
	}
	if n := binary.LittleEndian.Uint64(data[32:]); n != uint64(len(data)-HeaderSize-4) {
		return m, nil, fmt.Errorf("%w: %d-byte file for a %d-byte payload", ErrCorrupt, len(data), n)
	}
	body := data[:len(data)-4]
	if crc := binary.LittleEndian.Uint32(data[len(body):]); crc != crc32.ChecksumIEEE(body) {
		return m, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	m.Mode = data[8]
	m.Engine = data[9]
	m.Interval = binary.LittleEndian.Uint32(data[12:])
	m.FormulaFP = binary.LittleEndian.Uint64(data[16:])
	m.ProofFP = binary.LittleEndian.Uint64(data[24:])
	return m, body[HeaderSize:], nil
}

func checkMeta(got, want Meta) error {
	switch {
	case got.Mode != want.Mode:
		return fmt.Errorf("%w: verification mode changed (%d -> %d)", ErrMismatch, got.Mode, want.Mode)
	case got.Engine != want.Engine:
		return fmt.Errorf("%w: BCP engine changed (%d -> %d)", ErrMismatch, got.Engine, want.Engine)
	case got.Interval != want.Interval:
		return fmt.Errorf("%w: checkpoint interval changed (%d -> %d)", ErrMismatch, got.Interval, want.Interval)
	case got.FormulaFP != want.FormulaFP:
		return fmt.Errorf("%w: formula fingerprint %016x, expected %016x (stale journal?)", ErrMismatch, got.FormulaFP, want.FormulaFP)
	case got.ProofFP != want.ProofFP:
		return fmt.Errorf("%w: proof fingerprint %016x, expected %016x (stale journal?)", ErrMismatch, got.ProofFP, want.ProofFP)
	}
	return nil
}

// Write atomically replaces the journal at path with one record holding
// meta and payload. The record is durable when Write returns. The payload
// is only read, never copied or kept.
func Write(path string, meta Meta, payload []byte, reg *obs.Registry) error {
	f, err := atomicio.Create(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	if err := Encode(f, meta, payload); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	n := int64(HeaderSize + len(payload) + 4)
	reg.Counter("journal.appends").Inc()
	reg.Counter("journal.bytes").Add(n)
	// Flight-recorder instant per durable record (arg = file bytes): the
	// trace timeline then shows exactly when the run persisted progress.
	reg.TraceTrack().Instant("journal.append", n)
	return nil
}

// Remove deletes the journal at path, if there is one — called once a run
// reaches a verdict, after which the journal is stale by definition, and
// before a run that does not resume. A directory at path is an error, not
// a journal to delete.
func Remove(path string) error {
	fi, err := os.Lstat(path)
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return err
	case fi.IsDir():
		return fmt.Errorf("journal: %s is a directory", path)
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	atomicio.SyncDir(filepath.Dir(path))
	return nil
}

// Open reads the journal at path, validates it against want, and returns
// its payload. Everything that does not check out (a missing or truncated
// file, bad magic, version skew, a CRC failure, a meta mismatch) returns a
// typed error; callers treat every error as "fall back to a full run".
func Open(path string, want Meta, reg *obs.Registry) ([]byte, error) {
	span := reg.StartSpan("journal-open")
	defer span.End()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNoJournal, path)
		}
		return nil, err
	}
	got, payload, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if err := checkMeta(got, want); err != nil {
		return nil, err
	}
	reg.Counter("journal.opens").Inc()
	reg.TraceTrack().Instant("journal.resume", int64(len(payload)))
	return payload, nil
}
