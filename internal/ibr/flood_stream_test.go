package ibr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// digestCase is one flood of TestFloodStreamDigests: the spec (without
// victim, RNG or templates) and the seed of its RNG.
type digestCase struct {
	name string
	spec floodSpec
	seed uint64
}

// digestCases spans vector × shape × amplification × Retry × seed, and
// adds floods shorter than one chunk, exactly k chunks long and one
// arrival either side of a chunk edge.
func digestCases() []digestCase {
	versions := []wire.Version{wire.Version1, wire.VersionDraft29, wire.VersionDraft27, wire.VersionMVFST27}
	ratios := []float64{0, 0.5, 0.95}
	var cs []digestCase
	i := 0
	for _, vector := range []int{VectorQUIC, VectorTCP, VectorICMP} {
		for _, shape := range []uint8{shapeBurst, shapeSquare, shapeRamp} {
			for _, amp := range []int{1, 2, 3} {
				for _, retry := range []bool{false, true} {
					if retry && vector != VectorQUIC {
						continue
					}
					for seed := uint64(1); seed <= 2; seed++ {
						i++
						cs = append(cs, digestCase{
							name: "grid",
							seed: seed*1000 + uint64(i),
							spec: floodSpec{
								vector: vector, shape: shape, amp: amp, retryMitigated: retry,
								version:  versions[i%len(versions)],
								durSec:   []float64{65, 300, 2400}[i%3],
								peakPkts: 20 + 37*(i%7), basePkts: 5 + 61*(i%11),
								nAddrs: 1 + i%6, nPorts: 1 + 13*(i%5),
								scidRatio: ratios[i%len(ratios)],
							},
						})
					}
				}
			}
		}
	}
	// Arrival counts around the chunk edge: square and ramp floods have
	// 2+peak+base arrivals, burst floods of at least two minutes
	// 2+2·peak+base.
	edge := func(name string, vector int, shape uint8, amp, peak, base int) digestCase {
		return digestCase{name: name, seed: uint64(7000 + len(cs)), spec: floodSpec{
			vector: vector, shape: shape, amp: amp, version: wire.VersionDraft29,
			durSec: 600, peakPkts: peak, basePkts: base, nAddrs: 3, nPorts: 7, scidRatio: 0.6,
		}}
	}
	cs = append(cs,
		edge("short", VectorQUIC, shapeSquare, 1, 10, 5),          // 17 packets
		edge("short-amp", VectorTCP, shapeRamp, 3, 3, 1),          // 18 packets
		edge("one-chunk", VectorQUIC, shapeSquare, 1, 20, 10),     // 32 arrivals
		edge("one-chunk-burst", VectorICMP, shapeBurst, 1, 15, 0), // 32 arrivals
		edge("chunk-minus-one", VectorTCP, shapeSquare, 1, 19, 10),
		edge("chunk-plus-one", VectorTCP, shapeSquare, 1, 21, 10),
		edge("three-chunks", VectorQUIC, shapeRamp, 1, 60, 34),        // 96 arrivals
		edge("three-chunks-amp2", VectorQUIC, shapeSquare, 2, 30, 16), // 48 arrivals × 2
		edge("two-chunks-amp3", VectorICMP, shapeSquare, 3, 10, 8),    // 20 arrivals × 3
		edge("two-chunks-burst", VectorTCP, shapeBurst, 1, 30, 2),     // 64 arrivals
	)
	instant := edge("zero-duration", VectorTCP, shapeBurst, 2, 10, 5)
	instant.spec.durSec = 0
	return append(cs, instant)
}

// newDigestFlood returns the case's flood ready to stream.
func newDigestFlood(c digestCase, tpl *Templates) *floodSpec {
	f := c.spec
	f.victim = netmodel.MustAddr("142.250.3.3")
	f.startSec = 86400.25
	f.rng = *netmodel.NewRNG(c.seed)
	f.tpl = tpl
	return &f
}

// packetHash hashes every field of every packet it is given, payload
// bytes included.
type packetHash struct {
	h hash.Hash
	b [32]byte
}

func newPacketHash() *packetHash { return &packetHash{h: sha256.New()} }

func (ph *packetHash) add(p *telescope.Packet) {
	b := ph.b[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(p.TS))
	binary.LittleEndian.PutUint32(b[8:], uint32(p.Src))
	binary.LittleEndian.PutUint32(b[12:], uint32(p.Dst))
	binary.LittleEndian.PutUint16(b[16:], p.SrcPort)
	binary.LittleEndian.PutUint16(b[18:], p.DstPort)
	b[20], b[21] = byte(p.Proto), p.Flags
	binary.LittleEndian.PutUint16(b[22:], p.Size)
	binary.LittleEndian.PutUint32(b[24:], p.Weight)
	binary.LittleEndian.PutUint32(b[28:], uint32(len(p.Payload)))
	ph.h.Write(b)
	ph.h.Write(p.Payload)
}

func (ph *packetHash) sum() string { return hex.EncodeToString(ph.h.Sum(nil)) }

// packetDigest is the packetHash of pkts.
func packetDigest(pkts []telescope.Packet) string {
	ph := newPacketHash()
	for i := range pkts {
		ph.add(&pkts[i])
	}
	return ph.sum()
}

// drain streams src through pool to exhaustion and returns copies of
// its packets.
func drain(src Source, pool *slabPool) []telescope.Packet {
	var out []telescope.Packet
	for p, ok := src.next(pool); ok; p, ok = src.next(pool) {
		out = append(out, *p)
	}
	return out
}

// pinnedTemplates are the templates of the embedded default identity,
// so payload bytes are the same in every process.
func pinnedTemplates(t *testing.T) *Templates {
	t.Helper()
	id, err := tlsmini.ParseIdentityPEM(defaultIdentityPEM)
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := BuildTemplates(netmodel.NewRNG(1), id)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

// floodStreamDigests are the packet count and packetDigest of each of
// digestCases' floods as the whole-slab flood build made them, before
// floods streamed in chunks.
var floodStreamDigests = []struct {
	packets int
	digest  string
}{
	{182, "45af6550ec312061ffe2b3e25fe4be6a7b2310e92050430c4e48970b5795ae37"},
	{317, "d9b3dde1b0912f1267ac1bedbc79f32c4ac20e978b452ba11ecfdcc5c995d388"},
	{331, "9f3342b2b4aeed7c8c4b5beeadbbc231e4cb70d0772cb61e883d212e3d09d1d1"},
	{587, "9d91fdce08305aac796364f9478aa4e8c65522c6f6091c0db14cf107f536916c"},
	{1444, "f3e21f33ca78225b4524d3ce2189703c73d904db3a5383454f0208410c4a5d79"},
	{1270, "5b9a7ab6703d14118dabbe81d9a9b6eef11a2cfc9e19cbea1cf54570e50e4a02"},
	{948, "8d67e29d67314c0e9e3318b7fc92a299b760bc1322723159a5818955699bd9d2"},
	{1218, "5658347f31e80df97642d793905c7e85da9e2422d7447895a5c54bdf315d47fa"},
	{1971, "9c76d51e503ae97e5de9373dd4843814a8fd973db2a3577377b4d30a3eda7beb"},
	{2637, "4205655f2eb1870affe7b3a5e2e3f5b913b316e96384e15f6182ced0adf98954"},
	{1029, "f051923c76853242c428b629ccb044148f1514b2016830b6bd1dc7efc09e5eec"},
	{870, "836f99a6038176d52ea5832598999fd3ff28ede37f11604e9ca32fc0f9ac1e10"},
	{371, "5bc92c286471d5242feb36920f8b5014d703a600449116f0a9f774585076fbc4"},
	{210, "7f6586e13a3e2fff3c16aeed44c33f07143dafbe63361c058043964d61c59721"},
	{308, "c0dae6b842e67e3d3db92ffea2ea1e32130c4b65442693943c1b2129a7f1ab2e"},
	{406, "18d752a16d4cd48682f89167aa53f0f6daab669516db0a80480ffcc13998d07d"},
	{1008, "8be304b24966424563b4e372865704a4edf33affbd6b0fde6b6bc75dcbe50d87"},
	{1204, "3f1ba82216a5ef6e999c828d5f51aecc755cd5bae961d4263ade75ae287e9897"},
	{1400, "b439110437c31978481353999d3a77ea89dea7b660548f399d74573bd057798a"},
	{1596, "7b3c35190d27e371ed4a25c575446e1382e2d328dd07c6005dafca82358c2692"},
	{1911, "8def49c41a9a97079963fb3621e950ee72fc21caac6e3b302875fb0029f6fff5"},
	{192, "25806ef29bc60180d47a8e388e82d2b1f4a63d097a1970d00ef201809d00747a"},
	{486, "7e12b9dbfbd158fb9d1fa3e6d3c09c6032ff52bb3283b1d719c7b74997cd7cfe"},
	{780, "3773ca395c5f2bdebdceb0db47a7a06fb16526d8fb5581d145d42349a1123a4c"},
	{358, "01b072188ef7ba5fa69be6369429d4f945b8cd52eb8fd4948ec3c1c0be7e0db1"},
	{456, "033d3e5ecf0208ed59f6c0bef00ef2b8ad7f68f97da2d8277ec4714ff6a6f6ab"},
	{554, "b2d1e6ff160ca7d0ac49f17d3d6ad12424fb2fafdb50031ced5c4d35e35e31bf"},
	{393, "46f5c4f46067302e959435e334be16a55e6a20801ecd0b4da144422eb2369f1b"},
	{982, "f7d493cf9a062bc5bcd0d723ae39684c888db6546e90cebc7658a3d728a64848"},
	{1178, "e239a89e52678e41f4f741df959f7ff0a2216040a23cc0c51ed2e2b45c3b629b"},
	{1374, "c92d5b0af5b2f43f9cec83a31286b3fd7922fb54668973f55df473bb6a8272c5"},
	{1570, "0dcee611d8b609529c610fcf1221bdd5e8a6954e783fc81f14eae7ce62d6d035"},
	{636, "afec2f9155beff7850a3fc4e8aa7715a33efd12d0e51c3753e1567f263c15740"},
	{930, "c52e97504ff49d7c325651e06b320833a172e461027606bab46a300322f24e4e"},
	{447, "5d17ec644a0db7c3ca984ffb8295642c0717f03bbc10630d6efe92097c8bf99a"},
	{741, "59823a9eace87c8059305e632f62d68a605e51f3df9dd19aa1144e5ec95dece5"},
	{439, "d2b0bb734348da4830a98d8e01e2076196141ecc1d1a692a54e903c25fd1377e"},
	{574, "4365064abaff9ee3a2478294e4f6ffdb398ea6c8e73345dcde532179b5873dfe"},
	{1110, "138942a536aed24e7eef0537ee4481b6a96f5ba130e5f0b7a926383ddbd73da4"},
	{1688, "210f7b5748636899e25cb138d5d637caf3cb8b88b3d35e6edb51f1042d7338cd"},
	{2937, "867583ea53db8673ea0edd4f42f81b69ccee7bff6d5e7e2e18c5b5ea2c4a3c19"},
	{1731, "255a19c47aff98040e7896a9206881e081284b2936b1e61ab55bb03365775da4"},
	{674, "a0c69228cdd0ed21ba863bab53e8c5f00415c909cfedae079af85830fc683a95"},
	{101, "816897a69843862da4fc60960c7b532ea876a41d7126095977475086953ff057"},
	{398, "886f520cab1fbe4b86bd7538d3900d59dea15dbb54d8f3b9dbeb9fde6816098a"},
	{594, "52c611fb4832a87cb9d8ee807286b4e55e03c91f737abe0d424d9f5d7e47cb25"},
	{1185, "8880c0399191f91401cd356ca37454c8713b52961b1a3a58d2d6abb948a38b86"},
	{1479, "a9a176261772398a405c2d946fa4120555dfd8dcee78f35816ad0ef918c2bda3"},
	{332, "899dd29d62c43ec662aa6cf1dd57d66f7b476e45b074406344b2d201aa78b3f6"},
	{430, "162de141ea689869c052d9f0d8ba3f9321decea8b796dd5f377f936bf3bf33dc"},
	{1056, "651b3187350736babdf232e72a0cee0d73757e1cadef1b8e53d2145a9593ae22"},
	{1252, "d779366f1f5008643b3d4e5727908db9b38271ff1e810d1125cef786e72e5191"},
	{2172, "5c6b2653d7fb8368285b72f669e1d84611fac3519fb717ea07d5cdf31993fdd9"},
	{2466, "3b9f6e4136098695f0dfad50fa937ab08721d958e3721c593de1e56b53cec20b"},
	{491, "8816188a3d11b734d5128174d5dadafb856b8e6cefb329e29547e7cdacb456c9"},
	{108, "c9053447ee544267653de274fd60a91cf7fa8b2032ef8bd6d45e6a066909255e"},
	{380, "c301abdde44b97dc08104f8aa9a77367e092ff91ea06d4a47ed9646d95aeefcf"},
	{756, "7142b7e131b699456a86d2971454c33dd87783cb14ba5da411533236c5cd98c8"},
	{1539, "08daf3824952b7ec48fc263483fc6b7dd84310f21f34d1eb13e20a3270cea2c6"},
	{1482, "26168718dab48b126150739fb633d3408cd331ac5425a31ac838bb4814aa523b"},
	{578, "edb8752b4bb1435f0cee43ec0ef1bc00d385ac5e77fd295766609376f5791929"},
	{676, "985dc4dc1261051e091e9acb0f0d66576ff11529336efc30ceaad4bc74acc574"},
	{1030, "303a68b5510832cad3f39df112914771bc51273726eba30eec262bd978ce6008"},
	{1226, "dab38339b72c6fd31014ee1c553d478602840e3a30a91d5cc219c481c4cc99f1"},
	{2133, "665e53d443bf98b105a6efb99eb0c9a384e402fa763560f7cb759cb35f8c5c5f"},
	{414, "aecd9743b0450a9175edd83e23285cd364e07d7201084face9ed7584edc7c58b"},
	{236, "6a3d3fbf6607bb0906c263e7be5c6dd2c878a1ac1f5682f6c7e25b28c40f90ec"},
	{334, "fc612395ef54d2e00325eb1e3d11aacf9dbed4a6c1acea230f02cb6371f9923a"},
	{864, "0319f9133ec073c1aeb0b81d3e912f9fe90f133f578d76b4dd1adcaec538c764"},
	{542, "e1662c878eaddf10d25812ee22484b3103ffbd47e4ddbf9373a8c0fa1579ea76"},
	{1107, "9ca26a241b46e4c8020bf218435d76942e3cfa8a7a4118d19337a958a2a7c577"},
	{1401, "0274c8b503a2d5bc578ff68372b565bfa5630915d846627106f2313e77bba18d"},
	{17, "2bc133dbe2d8f5893bcddb14a61caaee5af459c42543195108ccee504f623e0b"},
	{18, "d85468e6be318172cf78396eeaa84b494a6e9926a5cc65d5d0de6cfa41d84968"},
	{32, "43522ca6d2768813e6a346e48b51f7131537ebe6ec2e16217cedec3cb8f11759"},
	{32, "2d22d65564e18bb773c612c8794903fedf4eb2c8d2320e46d9bdd3d7a8883743"},
	{31, "458bff50b2df0a525793d944bab83d64abe9dc8533497a6e7811f45345bad2d2"},
	{33, "2b8baceb037763d30d61f510881413f96de354f20250d4ae7f2dd5c7b59f2327"},
	{96, "446057a1b80428219ab7754f62b1d666efbfbfcdae070c007f8f4b1807da5f83"},
	{96, "f554bd5c694feee23bd10a35a85fe2981ae1acc420b39c5e6efc57914927581b"},
	{60, "005b09477c780110a52c8fd89c4a5720d3bd018c63dd7a897a2a9ecd51395c4e"},
	{64, "d5e93232139e27e296af6b0577a7a40c711c8b7f687c562c332cb987b0c6d95a"},
	{14, "d8ec9a368a955b3938e11e87dec85503a356e2299e292f539789488692e4c9af"},
}

// TestFloodStreamDigests holds the chunked flood stream to the bytes the
// whole-slab build made, through a non-recycling pool and through one
// warm recycling pool, and checks the chunking itself: every chunk
// opens on an arrival's first datagram and holds at most floodChunk
// packets, or one arrival's when amp exceeds it.
func TestFloodStreamDigests(t *testing.T) {
	tpl := pinnedTemplates(t)
	cases := digestCases()
	if len(cases) != len(floodStreamDigests) {
		t.Fatalf("%d cases, %d recorded digests", len(cases), len(floodStreamDigests))
	}
	pool := testPool(true)
	for i, c := range cases {
		want := floodStreamDigests[i]
		if got := drain(newDigestFlood(c, tpl), testPool(false)); len(got) != want.packets || packetDigest(got) != want.digest {
			t.Errorf("case %d (%s): %d packets digest %s, recorded %d %s", i, c.name, len(got), packetDigest(got), want.packets, want.digest)
		}

		f := newDigestFlood(c, tpl)
		amp := max(f.amp, 1)
		ph := newPacketHash()
		n := 0
		for p, ok := f.next(pool); ok; p, ok = f.next(pool) {
			if ch := &f.live.chunks; ch.j == 1 {
				if n%amp != 0 {
					t.Fatalf("case %d (%s): a chunk opens at packet %d, inside an arrival of %d datagrams", i, c.name, n, amp)
				}
				if len(ch.cur) > max(floodChunk, amp) {
					t.Fatalf("case %d (%s): a chunk of %d packets", i, c.name, len(ch.cur))
				}
			}
			ph.add(p)
			n++
		}
		if n != want.packets || ph.sum() != want.digest {
			t.Errorf("case %d (%s) through a warm pool: %d packets digest %s, recorded %d %s", i, c.name, n, ph.sum(), want.packets, want.digest)
		}
		if f.live != nil || len(pool.lives) == 0 {
			t.Fatalf("case %d (%s): the exhausted flood kept its working state", i, c.name)
		}
	}
}
