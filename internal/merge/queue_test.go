package merge

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"hssort/internal/codes"
)

// meter is a Budget with a fixed capacity that checks the queue's
// accounting: never negative, and over capacity only while admitting —
// the caller's Append, whose admission is the caller's call. A batch's
// scratch must fit in the room left.
type meter struct {
	t         *testing.T
	capacity  int64
	resident  int64
	admitting bool
}

func (m *meter) Acquire(b int64) {
	if m.resident += b; b > 0 && m.resident > m.capacity && !m.admitting {
		m.t.Fatalf("budget exceeded: %d resident of %d", m.resident, m.capacity)
	}
}

func (m *meter) Release(b int64) {
	if m.resident -= b; m.resident < 0 {
		m.t.Fatalf("budget released below zero: %d", m.resident)
	}
}

func (m *meter) Room() int64 { return m.capacity - m.resident }

// driveQueue feeds runs to st in chunks under a script of choices (pick
// returns a number in [0, n)): append a run's next chunk, close a run
// that has none left, drain a batch, or pop a few keys one at a time.
// It checks after every step that the keys emitted so far are the
// oracle's prefix, that nothing was emitted while an open run was
// starved, that no emitted key orders after an open run's last buffered
// key, that DrainReady stops only at starvation or exhaustion, and that
// the per-run consumed counts add up to the emitted count. With a meter
// (st's budget) it checks too that the meter holds exactly the appended
// keys not yet consumed — each chunk charged on Append, released as it
// is consumed, zero once the queue is exhausted. less orders two (key,
// run) pairs the way the merge does.
func driveQueue[K comparable](t *testing.T, st *Streamer[K], m *meter, runs [][]K, want []K, pick func(n int) int, less func(a K, ra int, b K, rb int) bool, origin func(K) int) {
	t.Helper()
	k := len(runs)
	size := int64(unsafe.Sizeof(*new(K)))
	rest := make([][]K, k) // keys not yet appended
	last := make([]*K, k)  // last key appended per run
	appended := make([]int64, k)
	open := make([]bool, k)
	for i, r := range runs {
		rest[i], open[i] = r, true
		if st.AddRun(nil) != i {
			t.Fatal("run indices out of order")
		}
	}
	starved := func() bool {
		for i := range runs {
			if open[i] && st.Consumed(i) == appended[i] {
				return true
			}
		}
		return false
	}
	var got []K
	emitted := func(batch []K, wasStarved bool) {
		t.Helper()
		if wasStarved && len(batch) > 0 {
			t.Fatalf("emitted %d keys while an open run was starved", len(batch))
		}
		for _, e := range batch {
			for i := range runs {
				if open[i] && last[i] != nil && less(*last[i], i, e, origin(e)) {
					t.Fatalf("emitted %v ahead of open run %d, whose last buffered key is %v", e, i, *last[i])
				}
			}
		}
		got = append(got, batch...)
		if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("emission diverged from the stable sort after %d keys", len(got))
		}
		var sum int64
		for i := range runs {
			sum += st.Consumed(i)
		}
		if sum != int64(len(got)) {
			t.Fatalf("consumed counts add up to %d, emitted %d", sum, len(got))
		}
	}
	checkMeter := func() {
		t.Helper()
		if m == nil {
			return
		}
		var held int64
		for i := range runs {
			held += appended[i] - st.Consumed(i)
		}
		if m.resident != held*size {
			t.Fatalf("meter holds %d bytes for %d buffered keys of %d bytes", m.resident, held, size)
		}
	}
	for steps := 0; !st.Exhausted(); steps++ {
		if steps > 64*(len(want)+k+1) {
			t.Fatalf("no progress: %d of %d keys after %d steps", len(got), len(want), steps)
		}
		i := pick(k)
		switch ev := pick(8); {
		case ev < 3 && open[i] && len(rest[i]) > 0:
			c := 1 + pick(min(len(rest[i]), 1+pick(40)))
			chunk := slices.Clone(rest[i][:c])
			if m != nil {
				m.admitting = true
			}
			st.Append(i, chunk)
			if m != nil {
				m.admitting = false
			}
			rest[i], last[i], appended[i] = rest[i][c:], &chunk[c-1], appended[i]+int64(c)
		case ev < 5 && open[i] && len(rest[i]) == 0:
			st.CloseRun(i)
			open[i] = false
		case ev < 7:
			was := starved()
			batch := st.DrainReady(nil)
			emitted(batch, was)
			if !starved() && !st.Exhausted() {
				t.Fatalf("DrainReady stopped after %d keys with no open run starved", len(got))
			}
		default:
			for n := 1 + pick(6); n > 0; n-- {
				was := starved()
				e, ok := st.NextReady()
				if !ok {
					break
				}
				emitted([]K{e}, was)
			}
		}
		checkMeter()
	}
	if len(got) != len(want) {
		t.Fatalf("exhausted after %d of %d keys", len(got), len(want))
	}
	if _, ok := st.Next(); ok {
		t.Fatal("Next emitted from an exhausted queue")
	}
}

// drivePlanes runs the script on the four planes, each bare and under
// budgets from roomy to nothing.
func drivePlanes(t *testing.T, keyRuns [][]codes.Code, pick func(n int) int) {
	t.Helper()
	recRuns, _ := recRunsOf(keyRuns)
	wantPure := stableMerge(keyRuns, codes.ExtractCode, nil)
	wantRec := stableMerge(recRuns, recKey, nil)
	lessCode := func(a codes.Code, _ int, b codes.Code, _ int) bool { return a < b }
	lessRec := func(a rec, ra int, b rec, rb int) bool {
		return a.key < b.key || (a.key == b.key && ra < rb)
	}
	for _, capacity := range []int64{-1, 1 << 20, 200, 0} {
		budget := func(st interface{ SetBudget(Budget) }) *meter {
			if capacity < 0 {
				return nil
			}
			m := &meter{t: t, capacity: capacity}
			st.SetBudget(m)
			return m
		}
		pure := NewStreamer(codes.Compare, nil)
		driveQueue(t, pure, budget(pure), keyRuns, wantPure, pick, lessCode, func(codes.Code) int { return 0 })
		for _, st := range []*Streamer[rec]{
			NewStreamer(recCmp, recKey),             // record plane
			NewStreamerTie(recCmp, recPrefix, true), // tie plane
			NewStreaming(recCmp),                    // comparator plane
		} {
			driveQueue(t, st, budget(st), recRuns, wantRec, pick, lessRec, func(e rec) int { return int(e.run) })
		}
	}
}

// TestDrainReadyMatchesPerKey: under randomized chunk sizes, feed
// interleavings, open/closed mixes and empty runs, over narrow, wide and
// single-value code spaces, on the pure / record / tie / comparator
// planes, with and without a budget clipping the batches, batch drains
// interleaved with per-key pops emit exactly the stable sort of the
// runs, never run ahead of an open run, and account every key to its
// run.
func TestDrainReadyMatchesPerKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 64))
	for _, k := range []int{1, 2, 3, 8, 33} {
		for _, space := range []uint64{1, 3, 64, 1 << 63} {
			t.Run(fmt.Sprintf("k=%d/space=%d", k, space), func(t *testing.T) {
				for trial := 0; trial < 6; trial++ {
					drivePlanes(t, runShape(rng, k, 150, space), rng.IntN)
				}
			})
		}
	}
}

// FuzzDrainReady reads run count, keys, chunk cuts, close points and
// the drain/pop interleaving off byte strings (the script's choices are
// its bytes) and holds the queue to the same oracle and
// invariants as TestDrainReadyMatchesPerKey.
func FuzzDrainReady(f *testing.F) {
	f.Add(uint8(3), []byte{9, 1, 8, 2, 7, 3, 6, 4, 5, 5, 4, 6, 3, 7, 2, 8, 1, 9}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(8), []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, []byte{0, 6, 0, 6, 1, 7, 2, 0, 3, 6})
	f.Add(uint8(1), []byte{}, []byte{})
	f.Add(uint8(40), []byte{1, 2, 3}, []byte{255, 254, 253, 3, 2, 1})
	f.Fuzz(func(t *testing.T, kB uint8, data, script []byte) {
		// Once the script runs out a fixed-seed generator takes over, so
		// the drive still terminates and still replays.
		at, rng := 0, rand.New(rand.NewPCG(uint64(len(script)), 7))
		pick := func(n int) int {
			if at++; at <= len(script) {
				return int(script[at-1]) % n
			}
			return rng.IntN(n)
		}
		drivePlanes(t, byteRuns(int(kB)%48+1, data), pick)
	})
}

// reusedSource hands out its run a chunk at a time, copied into one
// buffer it reuses, and fails the test when asked for a chunk before the
// queue has consumed the previous one.
type reusedSource[K any] struct {
	t      *testing.T
	st     *Streamer[K]
	run    int
	keys   []K
	chunk  int
	buf    []K
	handed int64
}

func (s *reusedSource[K]) NextChunk() ([]K, error) {
	if c := s.st.Consumed(s.run); c < s.handed {
		s.t.Fatalf("run %d asked for a chunk with %d of %d keys consumed", s.run, c, s.handed)
	}
	n := min(s.chunk, len(s.keys))
	if n == 0 {
		return nil, nil
	}
	s.buf = append(s.buf[:0], s.keys[:n]...)
	s.keys = s.keys[n:]
	s.handed += int64(n)
	return s.buf, nil
}

// TestQueueChargesRefills: the budgeted queue is where merge input is
// charged. Run 0, filled by the caller before SetBudget, is never
// charged; Refill charges each chunk a Source hands over and asks for
// the next only once the run has consumed it, so a Source that reuses
// one buffer merges correctly; batches clip to the room one chunk per
// source leaves; and the meter holds exactly the handed-over keys not
// yet consumed, zero once the queue is exhausted — driven by hand and
// through FromSources.
func TestQueueChargesRefills(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 2))
	size := int64(unsafe.Sizeof(rec{}))
	for _, k := range []int{1, 2, 5, 17} {
		for _, chunk := range []int{1, 7, 64} {
			recRuns, _ := recRunsOf(runShape(rng, k+1, 300, 1<<10))
			want := stableMerge(recRuns, recKey, nil)
			sources := func(st *Streamer[rec], runs [][]rec, first int) []Source[rec] {
				srcs := make([]Source[rec], len(runs))
				for i, r := range runs {
					srcs[i] = &reusedSource[rec]{t: t, st: st, run: first + i, keys: r, chunk: chunk}
				}
				return srcs
			}

			st := NewStreamer(recCmp, recKey)
			st.CloseRun(st.AddRun(recRuns[0]))
			m := &meter{t: t, capacity: int64(k*chunk) * size}
			st.SetBudget(m)
			srcs := sources(st, recRuns[1:], 1)
			for range srcs {
				st.AddRun(nil)
			}
			var got []rec
			for !st.Exhausted() {
				for i, src := range srcs {
					if _, err := st.Refill(1+i, src); err != nil {
						t.Fatal(err)
					}
				}
				got = st.DrainReady(got)
				var held int64
				for i, src := range srcs {
					held += src.(*reusedSource[rec]).handed - st.Consumed(1+i)
				}
				if m.resident != held*size {
					t.Fatalf("k=%d chunk=%d: meter holds %d bytes for %d buffered source keys", k, chunk, m.resident, held)
				}
			}
			if !slices.Equal(got, want) || m.resident != 0 {
				t.Fatalf("k=%d chunk=%d: by hand, output equal %v, meter %d at the end", k, chunk, slices.Equal(got, want), m.resident)
			}

			st = NewStreamer(recCmp, recKey)
			m = &meter{t: t, capacity: int64((k+1)*chunk) * size}
			got, err := FromSources(st, sources(st, recRuns, 0), m, nil, size)
			if err != nil || !slices.Equal(got, want) || m.resident != 0 {
				t.Fatalf("k=%d chunk=%d: FromSources err %v, output equal %v, meter %d at the end", k, chunk, err, slices.Equal(got, want), m.resident)
			}
		}
	}
}
