package sessions

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
)

// TestDecodeRejectsDuplicateSources: an image naming one source twice
// among its active sessions is malformed, not a merge.
func TestDecodeRejectsDuplicateSources(t *testing.T) {
	sz := NewSessionizer(nil)
	sz.Observe(pkt("1.1.1.1", 0, false), nil)
	sz.Observe(pkt("2.2.2.2", 0, false), nil)
	w := ckpt.NewWriter(nil)
	sz.EncodeTo(w)
	img := w.Bytes()
	encode := func(e *live) []byte {
		w := ckpt.NewWriter(nil)
		encodeLive(w, e)
		return w.Bytes()
	}
	one, two := encode(sz.active.At(0)), encode(sz.active.At(1))
	// Put the first session's bytes where the second's were.
	i := bytes.Index(img, two)
	if i < 0 {
		t.Fatal("second session not found in the image")
	}
	dup := append(append(append([]byte(nil), img[:i]...), one...), img[i+len(two):]...)
	r := ckpt.NewReader(dup)
	if got := DecodeSessionizer(r); got != nil || r.Err() == nil {
		t.Fatalf("duplicate sources decoded: %v, err %v", got, r.Err())
	}
}

// TestDecodeRelinksByEndThenSource: after a decode the budget's victims
// come in (End, Src) order, so the first eviction takes the same victim
// as before the checkpoint.
func TestDecodeRelinksByEndThenSource(t *testing.T) {
	sz := NewSessionizer(nil)
	sz.MaxActive = 8
	for _, src := range []string{"9.9.9.9", "5.5.5.5", "7.7.7.7", "3.3.3.3"} {
		sz.Observe(pkt(src, 0, false), nil)
	}
	sz.Observe(pkt("1.1.1.1", time.Second, false), nil)
	w := ckpt.NewWriter(nil)
	sz.EncodeTo(w)
	r := ckpt.NewReader(w.Bytes())
	d := DecodeSessionizer(r)
	if d == nil {
		t.Fatal(r.Err())
	}
	var got []netmodel.Addr
	for d.active.Len() > 0 {
		got = append(got, d.active.Remove(d.active.Coldest()).s.Src)
	}
	want := []netmodel.Addr{
		netmodel.MustAddr("3.3.3.3"), netmodel.MustAddr("5.5.5.5"), netmodel.MustAddr("7.7.7.7"),
		netmodel.MustAddr("9.9.9.9"), netmodel.MustAddr("1.1.1.1"),
	}
	if !slices.Equal(got, want) {
		t.Errorf("victims after decode %v, want %v", got, want)
	}
}
