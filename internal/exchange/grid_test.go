package exchange

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"hssort/internal/comm"
)

// gridSizes are the world sizes the grid tests sweep: perfect squares,
// one above and one below them, and partial last rows of every width.
var gridSizes = []int{16, 17, 20, 31, 64, 100, 255, 256, 257}

// TestGridShape checks the grid's routing tables for every p up to 300:
// peer sets ascending, free of the rank itself and symmetric in each
// hop, and every (sender, owner) pair routed through a first-hop peer
// (or the sender) to a second-hop peer of that rank (or the rank).
func TestGridShape(t *testing.T) {
	for p := 1; p <= 300; p++ {
		gr := newGrid(p)
		rows, cols := make([]map[int]bool, p), make([]map[int]bool, p)
		for r := range p {
			rows[r], cols[r] = set(gr.rowPeers(r)), set(gr.colPeers(r))
			for _, peers := range [][]int{gr.rowPeers(r), gr.colPeers(r)} {
				if !slices.IsSorted(peers) || slices.Contains(peers, r) || len(set(peers)) != len(peers) {
					t.Fatalf("p=%d: rank %d peers %v: not ascending, distinct and without the rank", p, r, peers)
				}
			}
		}
		for r := range p {
			for q := range rows[r] {
				if !rows[q][r] {
					t.Fatalf("p=%d: rank %d lists %d in its first hop, not the reverse", p, r, q)
				}
			}
			for q := range cols[r] {
				if !cols[q][r] {
					t.Fatalf("p=%d: rank %d lists %d in its second hop, not the reverse", p, r, q)
				}
			}
		}
		for s := range p {
			for d := range p {
				m := gr.via(s, d)
				if m != s && !rows[s][m] || m != d && !cols[m][d] {
					t.Fatalf("p=%d: %d → %d goes via %d, off the peer sets", p, s, d, m)
				}
			}
		}
	}
}

func set(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// TestExchangeForm pins the rule's edge through the messages Exchange
// sends on sim: 15 ranks exchange flat (p−1 messages each), 16 take the
// 4×4 grid (2·3 each).
func TestExchangeForm(t *testing.T) {
	for _, c := range []struct {
		p    int
		msgs int64
	}{{15, 15 * 14}, {16, 16 * 6}} {
		w := comm.NewWorld(c.p, comm.WithTimeout(30*time.Second))
		runs := gridRuns(c.p, c.p, 3)
		if err := w.Run(func(cm *comm.Comm) error {
			_, err := Exchange(cm, 1, runs[cm.Rank()], ContiguousOwner(c.p, c.p))
			return err
		}); err != nil {
			t.Fatalf("p=%d: %v", c.p, err)
		}
		if got := w.TotalCounters().MsgsSent; got != c.msgs {
			t.Errorf("p=%d: %d messages, want %d", c.p, got, c.msgs)
		}
	}
}

// gridRuns draws rank r's runs for buckets buckets: 0–3 keys each,
// every key naming its (bucket, rank, index), with whole ranks and
// whole buckets empty.
func gridRuns(p, buckets int, seed uint64) [][][]int64 {
	rng := rand.New(rand.NewPCG(seed, uint64(p)))
	runs := make([][][]int64, p)
	for r := range runs {
		runs[r] = make([][]int64, buckets)
		if r%7 == 3 {
			continue // an empty rank
		}
		for b := range runs[r] {
			if b%5 == 2 {
				continue // an empty bucket
			}
			for i := range rng.IntN(4) {
				runs[r][b] = append(runs[r][b], int64(b)<<32|int64(r)<<12|int64(i))
			}
		}
	}
	return runs
}

// exchangeAll runs exchange in the form grid picks over a fresh sim world and returns each
// rank's received runs and the world's counters.
func exchangeAll(t *testing.T, runs [][][]int64, owner func(int) int, grid bool) ([][][]int64, comm.Counters) {
	t.Helper()
	p := len(runs)
	got := make([][][]int64, p)
	w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
	if err := w.Run(func(c *comm.Comm) error {
		recv, err := exchange(c, 1, runs[c.Rank()], owner, grid)
		got[c.Rank()] = recv
		return err
	}); err != nil {
		t.Fatalf("grid=%v: %v", grid, err)
	}
	return got, w.TotalCounters()
}

// TestGridMatchesFlat: the grid form returns every rank the same runs,
// in the same order, as the flat form — which returns one run per
// non-empty (bucket, sender) pair, bucket-major — for contiguous and
// round-robin owners, with empty ranks and buckets. On sim the grid
// sends exactly its peer sets' messages, and its bytes are the flat
// form's, plus the runs that take two hops counted again, with one
// header per message actually sent.
func TestGridMatchesFlat(t *testing.T) {
	for _, p := range gridSizes {
		for _, o := range []struct {
			name    string
			buckets int
			owner   func(int) int
		}{
			{"contiguous", p, ContiguousOwner(p, p)},
			{"contiguous-3p", 3 * p, ContiguousOwner(3*p, p)},
			{"roundrobin", 2 * p, RoundRobinOwner(p)},
		} {
			t.Run(fmt.Sprintf("p=%d/%s", p, o.name), func(t *testing.T) {
				runs := gridRuns(p, o.buckets, 5)
				flat, fc := exchangeAll(t, runs, o.owner, false)
				grid, gc := exchangeAll(t, runs, o.owner, true)

				for d := range p {
					var want [][]int64
					for b := range o.buckets {
						if o.owner(b) != d {
							continue
						}
						for s := range p {
							if len(runs[s][b]) > 0 {
								want = append(want, runs[s][b])
							}
						}
					}
					if !slices.EqualFunc(flat[d], want, slices.Equal) {
						t.Fatalf("flat: rank %d received %d runs, want %d in bucket-sender order", d, len(flat[d]), len(want))
					}
					if !slices.EqualFunc(grid[d], flat[d], slices.Equal) {
						t.Fatalf("grid: rank %d's runs differ from the flat form's", d)
					}
				}

				g := 1
				for g*g < p {
					g++
				}
				rows := (p + g - 1) / g
				w := p - (rows-1)*g // the last row's width
				hop1 := (rows-1)*g*(g-1) + w*(w-1) + 2*w*(g-w)
				hop2 := w*rows*(rows-1) + (g-w)*(rows-1)*(rows-2)
				if fc.MsgsSent != int64(p*(p-1)) || gc.MsgsSent != int64(hop1+hop2) {
					t.Errorf("messages: flat %d, grid %d; want %d, %d", fc.MsgsSent, gc.MsgsSent, p*(p-1), hop1+hop2)
				}
				// A run takes two hops unless its sender and owner share
				// a row or a column, or the sender's partial last row
				// lacks the owner's column and the owner is that
				// column's top rank, which stands in for the missing cell.
				var forwarded int64
				for s := range p {
					for b, run := range runs[s] {
						d := o.owner(b)
						stand := s/g == rows-1 && d%g >= w && d < g
						if len(run) > 0 && s/g != d/g && s%g != d%g && !stand {
							forwarded += RunHeaderBytes + comm.SliceBytes(run)
						}
					}
				}
				headers := (gc.MsgsSent - fc.MsgsSent) * MsgHeaderBytes
				if want := fc.BytesSent + forwarded + headers; gc.BytesSent != want {
					t.Errorf("bytes: grid %d, want flat %d + forwarded %d + headers %d = %d",
						gc.BytesSent, fc.BytesSent, forwarded, headers, want)
				}
			})
		}
	}
}

// TestGridCrashInForwardHop crashes one rank at its first send of the
// forward hop (tag+1), after every rank has entered the grid. The victim
// and its column, which wait on its forward hop, must fail with a
// *comm.PeerCrashError naming it, and no rank may fail otherwise — a
// rank that no longer needs the victim may finish (a sort's closing
// all-reduce then fails it) — on sim and on the tcp loopback mesh, and
// nothing may leak.
func TestGridCrashInForwardHop(t *testing.T) {
	const p, victim = 16, 5
	for _, tr := range []struct {
		name string
		mk   func() comm.Transport
	}{
		{"sim", func() comm.Transport { return comm.NewSimTransport(p) }},
		{"tcp", func() comm.Transport {
			tr, err := comm.NewTCPLoopback(p)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ft := comm.NewFaultTransport(tr.mk(), comm.FaultSpec{
				CrashRank: victim,
				CrashWhen: func(src, _ int, tag comm.Tag) bool { return src == victim && tag == 2 },
			})
			runs := gridRuns(p, p, 9)
			errs := make([]error, p)
			w := comm.NewWorld(p, comm.WithTransport(ft), comm.WithTimeout(30*time.Second))
			if err := w.Run(func(c *comm.Comm) error {
				_, errs[c.Rank()] = Exchange(c, 1, runs[c.Rank()], ContiguousOwner(p, p))
				return errs[c.Rank()]
			}); err == nil {
				t.Fatal("crashed grid exchange returned nil")
			}
			waits := newGrid(p).colPeers(victim)
			for r, err := range errs {
				var crash *comm.PeerCrashError
				if (err != nil || r == victim || slices.Contains(waits, r)) && (!errors.As(err, &crash) || crash.Rank != victim) {
					t.Errorf("rank %d: %v, want a *comm.PeerCrashError naming rank %d", r, err, victim)
				}
			}
			ft.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), before)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
