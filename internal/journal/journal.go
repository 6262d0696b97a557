// Package journal is the crash-safety backbone of the verification
// pipeline: an append-only, fsync-disciplined checkpoint journal that makes
// long verification runs resumable after a SIGKILL, OOM-kill, or node
// preemption.
//
// The paper's Proof_verification1/2 are strictly ordered scans over F*; on
// industrial traces they run for minutes to hours, and the scan has natural
// clause-granular boundaries at which all verifier state is a small record:
// the verified suffix boundary, the marked-clause/core bitmaps, and the
// budget counters. The journal persists one such record every configured
// interval. A resume validates the file — magic, version, a CRC per record,
// and fingerprints of the CNF formula and the proof — and restarts from the
// last durable record; any mismatch (torn header, corrupt record, stale
// fingerprint, version skew) degrades to a full re-verification rather than
// ever trusting a questionable journal. A torn *tail* is expected — that is
// what a crash mid-append leaves — and is handled by resuming from the last
// record that checks out.
//
// The journal stores record payloads opaquely; the verifier (internal/core)
// defines the payload encoding, so the journal has no dependency on it.
//
// File layout (all integers little-endian):
//
//	header:  "DPVJ" | version u32 | kind u8 | mode u8 | engine u8 | pad u8 |
//	         reserved u32 (zero) | interval u32 | formulaFP u64 |
//	         proofFP u64 | crc32 u32 (over the bytes after version, i.e.
//	         [8:36))
//	record:  marker u8 ('C' checkpoint, 'F' final) | len u32 | payload |
//	         crc32 u32 (over marker+len+payload)
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// Magic identifies a checkpoint journal.
const Magic = "DPVJ"

// Version is the current journal format version. Readers reject any other
// version (resume then falls back to a full run).
const Version = 1

// HeaderSize is the byte length of the journal header.
const HeaderSize = 40

// Record markers.
const (
	// MarkerCheckpoint frames a resumable checkpoint payload.
	MarkerCheckpoint = 'C'
	// MarkerFinal frames a terminal record: the run ended (interrupted or
	// complete) and flushed its state one last time. Final records are
	// validated but never resumed from — resume uses the last checkpoint.
	MarkerFinal = 'F'
)

// Kind states which verifier wrote the journal; resuming with a different
// verifier is a mismatch.
type Kind uint8

const (
	// KindVerifySeq is the sequential core.Verify (pv1 and pv2).
	KindVerifySeq Kind = 1
	// Kinds 2, 3 and 4 are reserved: older binaries wrote kind 2 for the
	// chunked core.VerifyParallelOpts (with its worker count in the
	// header's reserved word), kind 3 for drat's own backward checker
	// (dratcheck -backward now journals core payloads under KindVerifySeq)
	// and kind 4 for a retired two-phase DAG-scheduled pipeline. No current
	// writer uses any of them, so such a journal never matches, its
	// payloads are never decoded, and resume falls back to a full run.
)

func (k Kind) String() string {
	if k == KindVerifySeq {
		return "verify"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Meta pins a journal to one exact verification setup. Every field
// participates in resume validation: the checkpoint grid (and hence the
// bit-for-bit determinism argument for resumed runs) depends on the mode,
// engine and interval, and the fingerprints tie the journal to one
// formula/proof pair.
type Meta struct {
	Kind     Kind
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
	// ErrCorrupt: the header or a fully-framed record fails its CRC or
	// structural checks. (A torn tail is NOT corruption; Open tolerates it.)
	ErrCorrupt = errors.New("journal: corrupt journal")
	// ErrVersionSkew: the journal was written by a different format version.
	ErrVersionSkew = errors.New("journal: version skew")
	// ErrMismatch: the journal belongs to a different formula/proof pair or
	// a different verification configuration.
	ErrMismatch = errors.New("journal: metadata mismatch")
	// ErrEmpty: the journal is well-formed but holds no durable checkpoint.
	ErrEmpty = errors.New("journal: no durable checkpoint record")
)

// maxPayload bounds a single record; anything larger is treated as corrupt.
const maxPayload = 1 << 30

// EncodeHeader renders a journal header for meta, including its CRC.
// Exported for the fault-injection harness, which needs to forge headers
// with valid CRCs but wrong content.
func EncodeHeader(meta Meta) []byte {
	h := make([]byte, HeaderSize)
	copy(h, Magic)
	binary.LittleEndian.PutUint32(h[4:], Version)
	h[8] = byte(meta.Kind)
	h[9] = meta.Mode
	h[10] = meta.Engine
	h[11] = 0
	binary.LittleEndian.PutUint32(h[16:], meta.Interval)
	binary.LittleEndian.PutUint64(h[20:], meta.FormulaFP)
	binary.LittleEndian.PutUint64(h[28:], meta.ProofFP)
	binary.LittleEndian.PutUint32(h[36:], crc32.ChecksumIEEE(h[8:36]))
	return h
}

// DecodeHeader parses and validates a journal header.
func DecodeHeader(h []byte) (Meta, error) {
	var m Meta
	if len(h) < HeaderSize {
		return m, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(h))
	}
	if string(h[:4]) != Magic {
		return m, fmt.Errorf("%w: bad magic %q", ErrCorrupt, h[:4])
	}
	if v := binary.LittleEndian.Uint32(h[4:]); v != Version {
		return m, fmt.Errorf("%w: journal version %d, reader version %d", ErrVersionSkew, v, Version)
	}
	if crc := binary.LittleEndian.Uint32(h[36:]); crc != crc32.ChecksumIEEE(h[8:36]) {
		return m, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	m.Kind = Kind(h[8])
	m.Mode = h[9]
	m.Engine = h[10]
	m.Interval = binary.LittleEndian.Uint32(h[16:])
	m.FormulaFP = binary.LittleEndian.Uint64(h[20:])
	m.ProofFP = binary.LittleEndian.Uint64(h[28:])
	return m, nil
}

func checkMeta(got, want Meta) error {
	switch {
	case got.Kind != want.Kind:
		return fmt.Errorf("%w: journal written by %v, resuming %v", ErrMismatch, got.Kind, want.Kind)
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

// Writer appends checkpoint records to a journal file, fsyncing each one so
// an acknowledged record survives any subsequent crash. It is not safe for
// concurrent use.
type Writer struct {
	f    *os.File
	path string
	// Obs, when non-nil, counts appended records and bytes under
	// journal.appends / journal.bytes and timestamps nothing (appends are
	// hot-adjacent; the per-record fsync dominates).
	obs *obs.Registry
	// frame holds a record's head (marker and length) and its CRC.
	frame [9]byte
}

// Create starts a fresh journal at path for the given meta, truncating any
// previous journal there (the caller reads the old journal with Open
// *before* creating the new one). The header is durable when Create
// returns.
func Create(path string, meta Meta, reg *obs.Registry) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(EncodeHeader(meta)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	syncDir(path)
	return &Writer{f: f, path: path, obs: reg}, nil
}

// Append frames payload as a checkpoint record and fsyncs it.
func (w *Writer) Append(payload []byte) error {
	return w.append(MarkerCheckpoint, payload)
}

// AppendFinal frames payload as a final record and fsyncs it. Written when
// a run stops (e.g. the SIGINT path) so the journal visibly ends with a
// clean flush; resume still uses the last checkpoint record.
func (w *Writer) AppendFinal(payload []byte) error {
	return w.append(MarkerFinal, payload)
}

// append writes the record's head, the caller's payload and the CRC around
// it as three writes, copying nothing, then fsyncs. A crash between the
// writes leaves a torn tail, which Open tolerates like any other.
func (w *Writer) append(marker byte, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("journal: payload of %d bytes exceeds the %d limit", len(payload), maxPayload)
	}
	head, crc := w.frame[:5], w.frame[5:]
	head[0] = marker
	binary.LittleEndian.PutUint32(head[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(crc, crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, payload))
	for _, b := range [][]byte{head, payload, crc} {
		if _, err := w.f.Write(b); err != nil {
			return fmt.Errorf("journal: append: %w", err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	n := int64(len(w.frame) + len(payload))
	w.obs.Counter("journal.appends").Inc()
	w.obs.Counter("journal.bytes").Add(n)
	// Flight-recorder instant per durable record (arg = frame bytes): the
	// trace timeline then shows exactly when the run persisted progress.
	w.obs.TraceTrack().Instant("journal.append", n)
	return nil
}

// Path returns the journal file path.
func (w *Writer) Path() string { return w.path }

// Close closes the journal file (records already appended stay durable).
func (w *Writer) Close() error { return w.f.Close() }

// Remove closes and deletes the journal — called once a run reaches a
// verdict, after which the journal is stale by definition.
func (w *Writer) Remove() error {
	w.f.Close()
	if err := os.Remove(w.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	syncDir(w.path)
	return nil
}

// Open reads the journal at path, validates it against want, and returns
// the payload of the last durable checkpoint record. A torn tail — an
// incomplete final frame, exactly what a crash mid-append leaves — is
// tolerated by returning the last record that validates. Everything else
// that does not check out (bad magic, version skew, meta mismatch, a CRC
// failure on a fully-framed record) returns a typed error; callers treat
// every error as "fall back to a full run".
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
	got, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	if err := checkMeta(got, want); err != nil {
		return nil, err
	}

	var last []byte
	rest := data[HeaderSize:]
	for len(rest) > 0 {
		if len(rest) < 5 {
			reg.Counter("journal.torn_tail").Inc()
			break // torn tail: incomplete frame head
		}
		marker := rest[0]
		n := binary.LittleEndian.Uint32(rest[1:5])
		if marker != MarkerCheckpoint && marker != MarkerFinal {
			return nil, fmt.Errorf("%w: unknown record marker 0x%02x", ErrCorrupt, marker)
		}
		if n > maxPayload {
			return nil, fmt.Errorf("%w: record claims %d-byte payload", ErrCorrupt, n)
		}
		total := 5 + int(n) + 4
		if len(rest) < total {
			reg.Counter("journal.torn_tail").Inc()
			break // torn tail: payload or CRC cut off mid-append
		}
		frame := rest[:total]
		if crc := binary.LittleEndian.Uint32(frame[total-4:]); crc != crc32.ChecksumIEEE(frame[:total-4]) {
			// A complete frame with a bad CRC is corruption, not a torn
			// tail — do not trust anything in this journal.
			return nil, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
		}
		if marker == MarkerCheckpoint {
			last = frame[5 : 5+int(n)]
		}
		rest = rest[total:]
	}
	if last == nil {
		return nil, fmt.Errorf("%w: %s", ErrEmpty, path)
	}
	reg.Counter("journal.opens").Inc()
	reg.TraceTrack().Instant("journal.resume", int64(len(last)))
	out := make([]byte, len(last))
	copy(out, last)
	return out, nil
}

func syncDir(path string) {
	dir := filepath.Dir(path)
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
