package faults

import (
	"bytes"
	"encoding/binary"

	"repro/internal/journal"
)

// JournalKind enumerates corruptions of a checkpoint-journal *file* — the
// crash-and-bitrot counterpart of the structural proof corruptions. Each one
// models a distinct way a journal on disk can be wrong when a verifier tries
// to resume from it, and each must degrade to a full run: never a wrong
// verdict, never a hang, never a record that was not written.
type JournalKind int

const (
	// JournalTruncatedTail cuts bytes off the end of the file. Records are
	// replaced atomically, so no crash leaves this; a copy or a disk that
	// loses the tail does, and Open must report the file corrupt.
	JournalTruncatedTail JournalKind = iota
	// JournalBitFlip flips a single bit anywhere but the version word —
	// bitrot, a bad sector, a buggy copy. CRC32 detects every single-bit
	// error, so Open must report the file corrupt. (A flip in the version
	// word reads as version skew, JournalVersionSkew's outcome.)
	JournalBitFlip
	// JournalStaleFingerprint re-encodes the file with the formula
	// fingerprint of some other instance and a valid CRC — a journal left
	// behind by a run on a different input. Open must report a metadata
	// mismatch.
	JournalStaleFingerprint
	// JournalVersionSkew re-encodes the file under another format version,
	// as a journal written by a newer or older build would carry. Open must
	// report version skew without attempting to parse the rest.
	JournalVersionSkew
)

// JournalKinds lists every journal corruption mode, for matrix tests.
var JournalKinds = []JournalKind{
	JournalTruncatedTail, JournalBitFlip, JournalStaleFingerprint, JournalVersionSkew,
}

func (k JournalKind) String() string {
	switch k {
	case JournalTruncatedTail:
		return "journal-truncated-tail"
	case JournalBitFlip:
		return "journal-bit-flip"
	case JournalStaleFingerprint:
		return "journal-stale-fingerprint"
	case JournalVersionSkew:
		return "journal-version-skew"
	default:
		return "unknown-journal-fault"
	}
}

// ApplyJournal returns a corrupted copy of a serialized journal. The input is
// never mutated. ok is false when the kind does not apply (the header-level
// kinds need a journal that decodes).
func (in *Injector) ApplyJournal(k JournalKind, data []byte) (out []byte, ok bool) {
	const versionAt = len(journal.Magic) // the version word follows the magic
	switch k {
	case JournalTruncatedTail:
		if len(data) == 0 {
			return nil, false
		}
		out = append([]byte(nil), data[:in.rng.Intn(len(data))]...)
	case JournalBitFlip:
		if len(data) <= versionAt+4 {
			return nil, false
		}
		out = append([]byte(nil), data...)
		i := in.rng.Intn(len(out) - 4)
		if i >= versionAt {
			i += 4
		}
		out[i] ^= 1 << in.rng.Intn(8)
	case JournalStaleFingerprint, JournalVersionSkew:
		meta, payload, err := journal.Decode(data)
		if err != nil {
			return nil, false
		}
		if k == JournalStaleFingerprint {
			meta.FormulaFP ^= 1 + uint64(in.rng.Int63())
		}
		var b bytes.Buffer
		journal.Encode(&b, meta, payload)
		out = b.Bytes()
		if k == JournalVersionSkew {
			// Encode writes only the current version; another build's
			// file, older or newer, differs first in this word, which a
			// reader checks before anything else.
			skew := uint32(1 + in.rng.Intn(journal.Version+15))
			if skew >= journal.Version {
				skew++
			}
			binary.LittleEndian.PutUint32(out[versionAt:], skew)
		}
	default:
		return nil, false
	}
	in.count()
	return out, true
}
