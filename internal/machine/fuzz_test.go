package machine

import (
	"testing"

	"rwsfs/internal/mem"
)

// FuzzDirectory differentially fuzzes the paged coherence directory (and
// the machine's accessBlock core around it) against refCoherence, the
// map-based model also used by TestDirectoryDifferential. The mode byte
// selects FIFO/free arbitration (bit 0) and flat/two-socket topology with
// remote pricing (bit 1), so the owner-provenance path fuzzes against the
// reference owner map. Each op is a byte pair: the first selects
// processor, write bit and a time increment; the second the block. Per-op
// delays must match, and the full coherence state (recency orders, node
// columns, sharer bits, lost bits, counters, transfer counts) is
// cross-checked at the end.
//
// Each input runs three times: on a fresh machine, and on two machines
// Reset from a run of the same ops at twice the block size, the other
// topology and another P — once with the same number of bitset words, so
// pages and their node columns carry over, and once across a word
// boundary, so the pages are dropped. Seed corpus lives in
// testdata/fuzz/FuzzDirectory; CI runs a short `-fuzz` pass on top.
func FuzzDirectory(f *testing.F) {
	f.Add(byte(0), byte(0), []byte{})
	f.Add(byte(2), byte(0), []byte{0, 0, 1, 0, 2, 0, 3, 1})
	f.Add(byte(7), byte(1), []byte{5, 3, 9, 3, 13, 3, 5, 7, 255, 255, 128, 64})
	f.Add(byte(7), byte(2), []byte{5, 3, 9, 3, 13, 3, 4, 3, 12, 3, 5, 7})
	// A longer mixed trace with eviction churn on a P=70 (two bitset
	// words) machine, flat and two-socket.
	long := make([]byte, 0, 120)
	for i := 0; i < 60; i++ {
		long = append(long, byte(i*11), byte(i*5))
	}
	f.Add(byte(69), byte(0), long)
	f.Add(byte(69), byte(3), long)

	f.Fuzz(func(t *testing.T, pSel, mode byte, ops []byte) {
		pr := fuzzParams(1+int(pSel)%80, 4, mode)
		fuzzRun(t, MustNew(pr), ops)
		w := (pr.P + 63) / 64
		within := (w-1)*64 + pr.P%64 + 1
		across := pr.P + 64
		if w > 1 {
			across = pr.P - 64
		}
		for _, prevP := range []int{within, across} {
			m := MustNew(fuzzParams(prevP, 2*pr.B, mode^2))
			fuzzRun(t, m, ops)
			if err := m.Reset(pr); err != nil {
				t.Fatal(err)
			}
			fuzzRun(t, m, ops)
		}
	})
}

// fuzzParams is FuzzDirectory's machine: p processors, blocks of b words,
// eight-block caches, and the arbitration and topology of mode.
func fuzzParams(p, b int, mode byte) Params {
	pr := Params{
		P: p, M: 8 * b, B: b,
		CostMiss: 3, CostSteal: 5, CostFailSteal: 2, CostNode: 1,
	}
	if mode&1 != 0 {
		pr.Arbitration = ArbitrationFree
	}
	if mode&2 != 0 && pr.P >= 2 {
		pr.Topology = Topology{Sockets: 2, CostMissRemote: 9}
	}
	return pr
}

// fuzzRun drives ops through m, fresh or just Reset, and a new reference
// model, and checks that they agree.
func fuzzRun(t *testing.T, m *Machine, ops []byte) {
	t.Helper()
	pr := m.Params
	ref := newRefCoherence(pr)
	// Working set larger than one cache (8 blocks) for eviction churn.
	const nBlocks = 24
	m.Alloc.Alloc(nBlocks * pr.B)
	now := Tick(0)
	for i := 0; i+1 < len(ops); i += 2 {
		sel, blk := ops[i], ops[i+1]
		p := int(sel) % pr.P
		write := sel&1 != 0
		bid := mem.BlockID(int(blk) % nBlocks)
		got := m.accessBlock(p, bid, write, now)
		want := ref.accessBlock(p, bid, write, now)
		if got != want {
			t.Fatalf("P=%d B=%d op %d: accessBlock(p=%d, bid=%d, write=%v, now=%d) delay = %d, reference %d",
				pr.P, pr.B, i/2, p, bid, write, now, got, want)
		}
		now += 1 + Tick(sel>>5)
	}
	checkCoherenceState(t, len(ops)/2, m, ref, nBlocks)
	for p := 0; p < pr.P; p++ {
		if m.Proc[p] != ref.proc[p] {
			t.Fatalf("P=%d B=%d proc %d counters = %+v, reference %+v", pr.P, pr.B, p, m.Proc[p], ref.proc[p])
		}
	}
	gotTot, gotMax := m.BlockTransfers()
	var wantTot, wantMax int64
	for _, n := range ref.transfers {
		wantTot += n
		if n > wantMax {
			wantMax = n
		}
	}
	if gotTot != wantTot || gotMax != wantMax {
		t.Fatalf("P=%d B=%d BlockTransfers = (%d, %d), reference (%d, %d)", pr.P, pr.B, gotTot, gotMax, wantTot, wantMax)
	}
}
