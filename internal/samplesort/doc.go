// Package samplesort implements the paper's primary baseline: parallel
// sample sort (§2.2) with the two sampling methods of §4.1 —
//
//   - Regular sampling (Shi & Schaeffer, §4.1.2): s evenly spaced keys
//     per processor; with s = B/ε the splitters provably achieve (1+ε)
//     balance (Lemma 4.1.1) at the cost of a Θ(B²/ε) sample.
//   - Random sampling (Blelloch et al., §4.1.1): one random key per block,
//     s = Θ(log N/ε²) per processor for the same guarantee w.h.p.
//
// The paper's point of comparison is purely the splitter-determination
// cost, so the package holds only that: the sampling phase as a
// core.Strategy. Everything around it is core's sort skeleton. It is
// experiment code: cmd/experiments (-exp sec4.2) is its only caller
// outside its tests.
package samplesort
