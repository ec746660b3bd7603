package network

import (
	"testing"

	"wormsim/internal/routing"
)

// FuzzScalarBatchEquivalence is the dynamic counterpart of wormlint's
// engineparity certificates: the static pass proves the scalar and batch
// engines read the same config, touch the same canonical state and draw the
// same RNG streams; this target proves the runtime consequence — replica r of
// a batch run is bit-identical to a scalar run with the same seed — across
// fuzzer-chosen topologies, algorithms, rates, run lengths and replica
// counts. The seed corpus passes in-tree with `go test`; nightly CI lets the
// fuzzer explore for five minutes.
func FuzzScalarBatchEquivalence(f *testing.F) {
	f.Add(uint64(11), uint8(0), uint8(0), uint16(200), uint8(20), uint8(2))
	f.Add(uint64(7), uint8(1), uint8(1), uint16(128), uint8(35), uint8(0))
	f.Add(uint64(23), uint8(4), uint8(2), uint16(96), uint8(10), uint8(1))
	f.Add(uint64(0xdeadbeef), uint8(3), uint8(3), uint16(64), uint8(50), uint8(2))
	f.Add(uint64(1), uint8(5), uint8(4), uint16(300), uint8(5), uint8(1))
	// The top of the rate clamp on the 8x8 torus, three replicas each.
	// algPick indexes the sorted routing.Names(): 0 is 2pn, 2 ecube,
	// 8 nlast and 9 phop. ecube and nlast saturate there, so many headers
	// wait in the allocation scan at once; under 2pn and phop channels also
	// see three or more requesters, the multi-VC arbitration path.
	f.Add(uint64(31), uint8(2), uint8(2), uint16(447), uint8(59), uint8(2))
	f.Add(uint64(47), uint8(2), uint8(8), uint16(447), uint8(59), uint8(2))
	f.Add(uint64(53), uint8(2), uint8(9), uint16(447), uint8(59), uint8(2))
	f.Add(uint64(59), uint8(2), uint8(0), uint16(447), uint8(59), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, shape, algPick uint8, cycles uint16, ratePct uint8, replicas uint8) {
		gc := batchGrids[int(shape)%len(batchGrids)]
		g := batchGrid(gc.k, gc.n, gc.mesh)
		names := routing.Names()
		alg, err := routing.Get(names[int(algPick)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		if alg.Compatible(g) != nil {
			t.Skip("algorithm/topology pair not supported")
		}
		// Clamp to cheap-but-interesting runs: enough cycles to cross the
		// mid-run reseed and drain some worms, load low enough to finish.
		runCycles := 64 + int64(cycles%448)
		rate := 0.005 + float64(ratePct%60)/1000.0
		seeds := make([]uint64, 1+int(replicas%3))
		for r := range seeds {
			seeds[r] = seed + uint64(r)*0x9e3779b97f4a7c15
		}
		got := batchFingerprints(t, g, alg, rate, seeds, runCycles)
		for r, s := range seeds {
			if want := scalarFingerprint(t, g, alg, rate, s, runCycles); got[r] != want {
				t.Errorf("replica %d (seed %d, %s, %s, rate %.3f, %d cycles) diverged from the scalar engine",
					r, s, gc.name, alg.Name(), rate, runCycles)
			}
		}
	})
}
