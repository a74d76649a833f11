package hssort

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"hssort/internal/dist"
)

func cloneByteShards(shards [][][]byte) [][][]byte {
	out := make([][][]byte, len(shards))
	for i, s := range shards {
		out[i] = slices.Clone(s)
	}
	return out
}

// byteOracle is the satellite-test reference: flatten the input and
// stable-sort it with the comparator. Keys that compare equal are
// byte-identical, so any correct distributed sort must reproduce this
// exact sequence when its rank outputs are concatenated in order.
func byteOracle(shards [][][]byte) [][]byte {
	var all [][]byte
	for _, s := range shards {
		all = append(all, s...)
	}
	slices.SortStableFunc(all, bytes.Compare)
	return all
}

// checkBytesAgainstOracle asserts each rank's output is sorted and the
// rank-order concatenation equals the sort.SliceStable-style oracle.
func checkBytesAgainstOracle(t *testing.T, oracle [][]byte, outs [][][]byte) {
	t.Helper()
	var got [][]byte
	for r, o := range outs {
		if !slices.IsSortedFunc(o, bytes.Compare) {
			t.Fatalf("rank %d output not sorted", r)
		}
		got = append(got, o...)
	}
	if !slices.EqualFunc(got, oracle, bytes.Equal) {
		t.Fatalf("output is not the sorted permutation of the input (%d vs %d keys)", len(got), len(oracle))
	}
}

// sameByteOutputs reports whether two runs produced rank-identical
// partitions.
func sameByteOutputs(a, b [][][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !slices.EqualFunc(a[r], b[r], bytes.Equal) {
			return false
		}
	}
	return true
}

// TestBytePrefixSaturation is the eps-honesty regression test: on an
// all-shared-prefix input every key has the same prefix code, so
// splitter resolution cannot improve past one bucket. The determination
// guard must saturate within its stagnation window instead of spinning
// histogram rounds, report Finalized=false, and publish the honest
// (terrible) achieved epsilon rather than the target.
func TestBytePrefixSaturation(t *testing.T) {
	const p, perRank = 4, 2000
	// URLLike keys all start with the exactly-8-byte "https://" scheme.
	shards := dist.ByteSpec{Kind: dist.URLLike}.Shards(perRank, p, 11)
	oracle := byteOracle(shards)

	s, err := NewBytes(Config{Procs: p, Epsilon: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plan, err := s.Plan(context.Background(), cloneByteShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	// The stagnation guard fires after three no-progress rounds; the
	// round count must stay pinned, not run to the round cap.
	if plan.Rounds > 4 {
		t.Errorf("saturated plan ran %d histogram rounds, want <= 4 (stagnation guard)", plan.Rounds)
	}
	if plan.Finalized {
		t.Error("saturated plan claims Finalized; splitters cannot meet their rank windows")
	}
	if plan.AchievedEpsilon <= plan.Epsilon {
		t.Errorf("AchievedEpsilon = %.4f <= target %.4f; saturation must be reported honestly",
			plan.AchievedEpsilon, plan.Epsilon)
	}
	// All keys share one code, so the whole input lands in one bucket:
	// achieved eps is p-1 exactly.
	if want := float64(p - 1); plan.AchievedEpsilon != want {
		t.Errorf("AchievedEpsilon = %.4f, want %.4f (single-bucket saturation)", plan.AchievedEpsilon, want)
	}

	outs, stats, err := s.Sort(context.Background(), cloneByteShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	checkBytesAgainstOracle(t, oracle, outs)
	if stats.Rounds > 4 {
		t.Errorf("saturated sort ran %d rounds, want <= 4", stats.Rounds)
	}
	if stats.PrefixCollisions != int64(p*perRank) {
		t.Errorf("PrefixCollisions = %d, want %d (every key is prefix-equal)",
			stats.PrefixCollisions, p*perRank)
	}
	if got, want := stats.Imbalance, float64(p); got != want {
		t.Errorf("Imbalance = %.4f, want %.4f (honest single-bucket report)", got, want)
	}
}

// TestBytesPlanRoundTrip exercises prepare-once/sort-many on the prefix
// plane: a plan's code-space splitters materialize as 8-byte
// representative keys, re-extract to the identical codes inside
// SortWithPlan, and reproduce the direct sort exactly — at zero rounds
// where the plan met its target (hash-like keys), and through the same
// stagnating rounds again where no code-space plan can (url-like keys all
// share one prefix code, so round 0 rejects the plan every time).
func TestBytesPlanRoundTrip(t *testing.T) {
	const p, perRank = 4, 1500
	for _, kind := range []dist.ByteKind{dist.HashLike, dist.URLLike} {
		t.Run(kind.String(), func(t *testing.T) {
			shards := dist.ByteSpec{Kind: kind}.Shards(perRank, p, 29)
			oracle := byteOracle(shards)
			s, err := NewBytes(Config{Procs: p, Epsilon: 0.05, Seed: 31})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			direct, _, err := s.Sort(context.Background(), cloneByteShards(shards))
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			plan, err := s.Plan(context.Background(), cloneByteShards(shards))
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			planned, stats, err := s.SortWithPlan(context.Background(), plan, cloneByteShards(shards))
			if err != nil {
				t.Fatalf("planned: %v", err)
			}
			checkBytesAgainstOracle(t, oracle, planned)
			if !sameByteOutputs(planned, direct) {
				t.Fatal("SortWithPlan output differs from the direct sort")
			}
			if met := plan.AchievedEpsilon <= plan.Epsilon; met != (kind == dist.HashLike) {
				t.Fatalf("plan achieved ε %v against a target of %v", plan.AchievedEpsilon, plan.Epsilon)
			} else if met != (stats.Rounds == 0) {
				t.Errorf("planned sort ran %d histogram rounds on a plan with achieved ε %v", stats.Rounds, plan.AchievedEpsilon)
			}
		})
	}
}
