package hssort_test

import (
	"fmt"

	"hssort"
)

// ExampleSort sorts a tiny deterministic workload across four simulated
// processors and shows the per-processor partitions of the global order.
func ExampleSort() {
	shards := [][]int64{
		{40, 1, 33, 21},
		{7, 39, 2, 18},
		{27, 5, 14, 36},
		{11, 30, 9, 24},
	}
	out, stats, err := hssort.Sort(hssort.Config{Procs: 4, Epsilon: 0.25, Seed: 1}, shards)
	if err != nil {
		panic(err)
	}
	total := 0
	for _, o := range out {
		total += len(o)
	}
	fmt.Println("keys sorted:", total)
	fmt.Println("rank 0 starts with:", out[0][0])
	fmt.Println("imbalance within target:", stats.Imbalance <= 1.25)
	// Output:
	// keys sorted: 16
	// rank 0 starts with: 1
	// imbalance within target: true
}

// ExampleSortFunc sorts records of a custom type with an explicit
// comparator.
func ExampleSortFunc() {
	type event struct {
		At   int64
		Name string
	}
	shards := [][]event{
		{{At: 9, Name: "c"}, {At: 1, Name: "a"}},
		{{At: 5, Name: "b"}, {At: 12, Name: "d"}},
	}
	out, _, err := hssort.SortFunc(hssort.Config{Procs: 2, Epsilon: 0.5, Seed: 1}, shards,
		func(a, b event) int {
			switch {
			case a.At < b.At:
				return -1
			case a.At > b.At:
				return 1
			default:
				return 0
			}
		})
	if err != nil {
		panic(err)
	}
	for _, o := range out {
		for _, e := range o {
			fmt.Printf("%d:%s ", e.At, e.Name)
		}
	}
	fmt.Println()
	// Output:
	// 1:a 5:b 9:c 12:d
}

// ExampleSimulateSplitters runs the splitter-determination protocol at a
// scale no laptop could host as real ranks — the paper's Table 6.1 tool.
func ExampleSimulateSplitters() {
	res, err := hssort.SimulateSplitters(1<<22, 4096, 0.02, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("finalized:", res.Finalized)
	fmt.Println("rounds within the paper's bound of 8:", res.Rounds <= 8)
	fmt.Println("imbalance within 1.02:", res.Imbalance <= 1.02)
	// Output:
	// finalized: true
	// rounds within the paper's bound of 8: true
	// imbalance within 1.02: true
}
