package detect

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// cidFlood feeds one source's QUIC packets, one per datagram and dt
// apart from start, each carrying cids[i] as its SCID, and returns the
// cid-ratio episodes the shard raised.
func cidFlood(cfg Config, start telescope.Timestamp, dt time.Duration, cids [][]byte) []Alert {
	d := NewShard(cfg)
	src := netmodel.Addr(0x7f000001)
	res := &dissect.Result{Packets: make([]dissect.PacketInfo, 1), Valid: true}
	for i, cid := range cids {
		res.Packets[0] = dissect.PacketInfo{Type: wire.PacketTypeRetry, SCID: cid}
		d.Observe(&telescope.Packet{TS: start + telescope.Timestamp(int64(i)*dt.Milliseconds()), Src: src, Size: 100}, res)
	}
	d.Flush()
	var out []Alert
	for _, a := range d.Drain() {
		if a.Kind == KindCIDRatio {
			out = append(out, a)
		}
	}
	return out
}

// randomCIDs draws n random 8-byte CIDs.
func randomCIDs(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 8)
		rng.Read(out[i])
	}
	return out
}

// TestCIDRatioAtAnySize holds the cid-ratio detector to the three CID
// shapes it must tell apart, from the evidence floor to an order of
// magnitude above the paper schedule's largest flood, for 200 CID seeds
// per size: a fresh SCID per packet (the spoofed handshake flood's
// backscatter) opens one episode; each CID used three times in a row
// (ratio 0.33, a server's Initial+Handshake flights without RETRY) and
// a pool of 8 CIDs never open one.
func TestCIDRatioAtAnySize(t *testing.T) {
	cfg := Default()
	sizes := []int{20, 21, 50, 200, 1150, 10000}
	if testing.Short() {
		sizes = []int{20, 200, 1150}
	}
	for _, n := range sizes {
		dt := max(cfg.Window/time.Duration(2*n), time.Millisecond) // the whole flood inside one window
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fresh := randomCIDs(rng, n)
			if got := cidFlood(cfg, 0, dt, fresh); len(got) != 1 {
				t.Fatalf("%d fresh CIDs, seed %d: %d cid-ratio episodes, want 1", n, seed, len(got))
			}
			thrice := make([][]byte, n)
			for i, cid := range randomCIDs(rng, (n+2)/3) {
				copy(thrice[3*i:min(3*i+3, n)], [][]byte{cid, cid, cid})
			}
			if got := cidFlood(cfg, 0, dt, thrice); len(got) != 0 {
				t.Fatalf("%d packets, each CID thrice, seed %d: cid-ratio %+v, want none", n, seed, got)
			}
			pool := randomCIDs(rng, 8)
			pooled := make([][]byte, n)
			for i := range pooled {
				pooled[i] = pool[rng.Intn(len(pool))]
			}
			if got := cidFlood(cfg, 0, dt, pooled); len(got) != 0 {
				t.Fatalf("%d packets from a pool of 8 CIDs, seed %d: cid-ratio %+v, want none", n, seed, got)
			}
		}
	}
}

// TestCIDRatioAtAnyBucketPhase: whether a flood opens a cid-ratio
// episode must not depend on where the wall clock puts the bucket edges.
// 300 fresh SCIDs at 500 pps under a 10 s window (the backscatter
// chain's RETRY flood) start at every bucket phase in 50 ms steps, and
// each start opens exactly one episode.
func TestCIDRatioAtAnyBucketPhase(t *testing.T) {
	cfg := Default()
	cfg.Window = 10 * time.Second
	bucketMS := cfg.Window.Milliseconds() / Buckets
	cids := randomCIDs(rand.New(rand.NewSource(1)), 300)
	base := telescope.Timestamp(1_792_218_768_000 / bucketMS * bucketMS) // a bucket edge
	for off := int64(0); off < bucketMS; off += 50 {
		if got := cidFlood(cfg, base+telescope.Timestamp(off), 2*time.Millisecond, cids); len(got) != 1 {
			t.Errorf("flood starting %d ms into a bucket: %d cid-ratio episodes, want 1", off, len(got))
		}
	}
}

// TestCIDWindowForgetsDroppedBuckets checks the union against the
// buckets it summarises: the summary kept up packet by packet equals the
// one rebuilt from the buckets, a window whose old bucket is dropped
// reads the CIDs of the buckets left, and one whose CIDs all fell out of
// the ring reads empty again.
func TestCIDWindowForgetsDroppedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 20000; n *= 3 {
		var buckets [Buckets]cidSketch
		w := emptyCIDWindow
		for i := 0; i < n; i++ {
			w.add(&buckets, rng.Int63n(Buckets), rng.Uint64())
		}
		var rebuilt cidWindow
		rebuilt.rebuild(&buckets)
		if rebuilt != w {
			t.Fatalf("%d CIDs: incremental summary %+v, rebuilt %+v", n, w, rebuilt)
		}
	}

	var st srcState
	st.cidWin = emptyCIDWindow
	for _, cid := range randomCIDs(rng, 40) {
		st.quic[0]++
		st.cidWin.add(&st.cids, 0, cidHash(cid))
	}
	for _, cid := range randomCIDs(rng, 5) {
		st.quic[1]++
		st.cidWin.add(&st.cids, 1, cidHash(cid))
	}
	if e := st.cidWin.estimate(); e < 40 || e > 50 {
		t.Fatalf("45 CIDs estimated at %.1f", e)
	}
	if !st.clearBucket(0) {
		t.Fatal("clearing a bucket with CIDs reported none")
	}
	st.cidWin.rebuild(&st.cids)
	if e := st.cidWin.estimate(); e < 4 || e > 6 {
		t.Errorf("5 CIDs left after dropping 40 estimated at %.1f", e)
	}
	st.clearBucket(1)
	st.cidWin.rebuild(&st.cids)
	if st.cidWin != emptyCIDWindow || st.cidWin.estimate() != 0 {
		t.Errorf("window of no CIDs = %+v, estimate %.1f", st.cidWin, st.cidWin.estimate())
	}
}

// TestSrcStateSize pins the per-source window state -mem-budget is sized
// from: at most 1 KiB, CID sketches included.
func TestSrcStateSize(t *testing.T) {
	if n := unsafe.Sizeof(srcState{}); n > 1024 {
		t.Errorf("srcState is %d B, want ≤ 1024", n)
	} else {
		t.Logf("srcState is %d B", n)
	}
}
