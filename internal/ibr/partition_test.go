package ibr

import (
	"reflect"
	"testing"

	"quicsand/internal/netmodel"
)

// groupLoads sums each group's planned packets.
func groupLoads(groups [][]Source) []uint64 {
	loads := make([]uint64, len(groups))
	for k, g := range groups {
		for _, s := range g {
			loads[k] += s.plannedPackets()
		}
	}
	return loads
}

// TestPartitionInvariants checks the deal on random schedules: every
// source in exactly one group and every address in one group, schedule
// order kept within a group, equal groups from two calls, and no group
// above the mean plus the heaviest single address. Schedules mix light
// and heavy sources, some planning nothing, and repeat addresses so
// several sources share one.
func TestPartitionInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := netmodel.NewRNG(seed)
		var sources []Source
		for i := 0; i < 1+rng.Intn(400); i++ {
			src := newTestSource(0, netmodel.Addr(1+rng.Intn(1+rng.Intn(200))), nil)
			src.planned = uint64(rng.Intn(50))
			if rng.Intn(10) == 0 {
				src.planned = uint64(rng.Intn(100000))
			}
			sources = append(sources, src)
		}
		index := make(map[Source]int, len(sources))
		for i, s := range sources {
			index[s] = i
		}
		for _, n := range []int{1, 2, 3, 5, 8} {
			groups := Partition(sources, n)
			if len(groups) != n {
				t.Fatalf("seed %d n %d: %d groups", seed, n, len(groups))
			}
			if again := Partition(sources, n); !reflect.DeepEqual(groups, again) {
				t.Fatalf("seed %d n %d: two calls gave different groups", seed, n)
			}
			seen := make(map[Source]bool, len(sources))
			home := make(map[netmodel.Addr]int)
			addrLoad := make(map[netmodel.Addr]uint64)
			for k, g := range groups {
				last := -1
				for _, s := range g {
					i, ok := index[s]
					if !ok || seen[s] {
						t.Fatalf("seed %d n %d: source %d placed twice or unknown", seed, n, i)
					}
					seen[s] = true
					if i <= last {
						t.Fatalf("seed %d n %d group %d: schedule order broken at source %d", seed, n, k, i)
					}
					last = i
					if h, ok := home[s.Src()]; ok && h != k {
						t.Fatalf("seed %d n %d: address %v in groups %d and %d", seed, n, s.Src(), h, k)
					}
					home[s.Src()] = k
					addrLoad[s.Src()] += s.plannedPackets()
				}
			}
			if len(seen) != len(sources) {
				t.Fatalf("seed %d n %d: %d of %d sources placed", seed, n, len(seen), len(sources))
			}
			var total, heaviest uint64
			for _, l := range addrLoad {
				total += l
				heaviest = max(heaviest, l)
			}
			for k, l := range groupLoads(groups) {
				if float64(l) > float64(total)/float64(n)+float64(heaviest) {
					t.Fatalf("seed %d n %d: group %d carries %d, mean %.1f + heaviest %d",
						seed, n, k, l, float64(total)/float64(n), heaviest)
				}
			}
		}
	}
}

// TestPartitionBalancesPaperMonth deals the benchmark's simulated month
// (paper-2021, scale 0.05, seed 7) over two shards: the planned-packet
// skew — the busiest shard over the mean — must stay within 2 %.
func TestPartitionBalancesPaperMonth(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules a month")
	}
	gen, err := New(Config{Seed: 7, Scale: 0.05, Identity: ibrIdentity})
	if err != nil {
		t.Fatal(err)
	}
	loads := groupLoads(Partition(gen.Sources(), 2))
	skew := float64(max(loads[0], loads[1])) / (float64(loads[0]+loads[1]) / 2)
	if skew > 1.02 {
		t.Fatalf("planned-packet skew %.4f over shards %v, want ≤ 1.02", skew, loads)
	}
	t.Logf("planned packets per shard %v, skew %.4f", loads, skew)
}

// TestPartitionFloodWeightIsBuildCount pins the weight Partition gives a
// flood: its planned count is the number of packets it streams, for
// every shape and amplification, not an estimate.
func TestPartitionFloodWeightIsBuildCount(t *testing.T) {
	for i, spec := range testFloods {
		for _, amp := range []int{0, 1, 2, 5} {
			for _, shape := range []uint8{shapeBurst, shapeSquare, shapeRamp} {
				spec.amp, spec.shape = amp, shape
				f := newTestFlood(t, spec, uint64(i+1))
				if got, want := f.plannedPackets(), uint64(len(drain(f, testPool(false)))); got != want {
					t.Fatalf("flood %d shape %d amp %d: planned %d, streamed %d", i, shape, amp, got, want)
				}
			}
		}
	}
}
