package ibr_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
	"quicsand/internal/wire"
)

// TestTemplatesBuiltOnFirstUse pins when the template handshakes run:
// never while a month is only scheduled, once when the first packet is
// generated, and from the RNG fork NewEmpty took, so a lazy build is
// byte-identical to an eager one. A second build cannot happen
// silently: the build drops its RNG, so repeating it would crash, and
// every caller reads one shared set (ScanPacket returns the template
// itself, so equal backing arrays mean one build).
func TestTemplatesBuiltOnFirstUse(t *testing.T) {
	id, err := tlsmini.GenerateSelfSigned("ibr.test", 600)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	// eager builds templates from the fork NewEmpty takes at seed: the
	// census first, then the templates.
	eager := func() *ibr.Templates {
		root := netmodel.NewRNG(seed)
		root.Fork("census")
		tpl, err := ibr.BuildTemplates(root.Fork("templates"), id)
		if err != nil {
			t.Fatal(err)
		}
		return tpl
	}
	sc, err := scenario.Builtin("handshake-flood-qfam")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ibr.Config{Seed: seed, Scale: 0.002, Identity: id}
	g, err := scenario.Compile(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sources()) == 0 {
		t.Fatal("compiled scenario scheduled nothing")
	}
	if g.Templates().Built() {
		t.Fatal("compiling a scenario built the templates")
	}

	var packets int
	g.Feeds(1, false)[0].Run(func(*telescope.Packet) { packets++ })
	if packets == 0 {
		t.Fatal("drained feed generated no packet")
	}
	if !g.Templates().Built() {
		t.Fatal("generating packets did not build the templates")
	}
	if d := ibr.DiffTemplates(g.Templates(), eager()); d != "" {
		t.Errorf("drained generator's templates differ from an eager build at %s", d)
	}

	// Eight first callers at once on a fresh generator: one build, and
	// every caller sees its bytes.
	fresh, err := ibr.NewEmpty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tpl := fresh.Templates()
	const callers = 8
	scid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	scans := make([][]byte, callers)
	responses := make([][]byte, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				scans[i] = tpl.ScanPacket(wire.Version1)
				responses[i] = tpl.ResponsePacket(wire.Version1, ibr.KindD1, scid)
			} else {
				responses[i] = tpl.ResponsePacket(wire.Version1, ibr.KindD1, scid)
				scans[i] = tpl.ScanPacket(wire.Version1)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if &scans[i][0] != &scans[0][0] {
			t.Errorf("caller %d read a scan template from another build", i)
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Errorf("caller %d built a different response datagram", i)
		}
	}
	ref := eager()
	if !bytes.Equal(scans[0], ref.ScanPacket(wire.Version1)) ||
		!bytes.Equal(responses[0], ref.ResponsePacket(wire.Version1, ibr.KindD1, scid)) {
		t.Error("concurrent first use built other bytes than an eager build")
	}
	if d := ibr.DiffTemplates(tpl, ref); d != "" {
		t.Errorf("concurrently built templates differ from an eager build at %s", d)
	}
}

// TestNewEmptyRejectsKeylessIdentity keeps the identity check up front:
// the handshakes that need the key run later, on the first packet.
func TestNewEmptyRejectsKeylessIdentity(t *testing.T) {
	_, err := ibr.NewEmpty(ibr.Config{Seed: 1, Identity: &tlsmini.Identity{}})
	if err == nil || !strings.Contains(err.Error(), "private key") {
		t.Fatalf("NewEmpty with a keyless identity: err = %v", err)
	}
}
