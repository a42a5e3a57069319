package locate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"coremap/internal/memo"
)

// The reconstruction cache is content-addressed: two Inputs that describe
// the same placement problem must hash to the same key, regardless of how
// the problem was assembled. The fingerprint therefore canonicalizes the
// encoding:
//
//   - observations are encoded as self-contained records and sorted, so
//     the order the probe emitted them in is irrelevant (the solver's
//     lexicographic tie-break makes Map.Pos order-independent too — the
//     position variables are created before any per-observation variable,
//     so they dominate the tie-break prefix);
//   - anchored observations resolve SrcIMC through IMCPositions into die
//     coordinates, so the fingerprint does not depend on IMC numbering or
//     on unreferenced IMCPositions entries;
//   - only the Options fields that can change the reconstruction
//     participate (PaperExactBounds, MaxNodes, MaxSeparationRounds).
//     Workers is excluded: it is ignored (the solver is single-threaded).
//
// fingerprintVersion is baked into the digest; bump it whenever the
// encoding or the reconstruction semantics change so stale processes
// cannot alias old entries. Version 3 dropped the NoPrune option from
// the header: the dominance-pruned emitter is the only one. Version 4
// dropped the topology-backend discriminator: the mesh is the only
// substrate.
const fingerprintVersion = 4

// Fingerprint returns the canonical content digest of a reconstruction
// problem: a header of the grid dimensions and the
// Options fields that can change the reconstruction, followed by the
// sorted, self-contained observation records. Reconstruct must have
// validated in first (anchored observations index into IMCPositions).
func Fingerprint(in Input, opts Options) memo.Key {
	var buf []byte
	u := func(v int64) { buf = binary.AppendVarint(buf, v) }
	u(fingerprintVersion)
	u(int64(in.NumCHA))
	u(int64(in.Rows))
	u(int64(in.Cols))
	if opts.PaperExactBounds {
		u(1)
	} else {
		u(0)
	}
	u(int64(opts.MaxNodes))
	u(int64(opts.MaxSeparationRounds))

	recs := make([][]byte, 0, len(in.Observations))
	for _, o := range in.Observations {
		var r []byte
		ru := func(v int64) { r = binary.AppendVarint(r, v) }
		if o.Anchored {
			pos := in.IMCPositions[o.SrcIMC]
			ru(1)
			ru(int64(pos.Row))
			ru(int64(pos.Col))
		} else {
			ru(0)
			ru(int64(o.SrcCHA))
		}
		ru(int64(o.DstCHA))
		for _, list := range [][]int{o.Up, o.Down, o.Horz} {
			ru(int64(len(list)))
			for _, k := range list {
				ru(int64(k))
			}
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
	u(int64(len(recs)))
	for _, r := range recs {
		u(int64(len(r)))
		buf = append(buf, r...)
	}
	return sha256.Sum256(buf)
}
