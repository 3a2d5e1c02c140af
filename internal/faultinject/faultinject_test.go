package faultinject

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestApplyTruncate(t *testing.T) {
	data := []byte("0123456789")
	got := Apply(data, Fault{Kind: Truncate, Offset: 4})
	if string(got) != "0123" {
		t.Fatalf("got %q", got)
	}
	if string(data) != "0123456789" {
		t.Fatal("Apply mutated its input")
	}
}

func TestApplyBitFlip(t *testing.T) {
	data := []byte{0x00, 0x00, 0x00}
	got := Apply(data, Fault{Kind: BitFlip, Offset: 1, Len: 2, XorMask: 0xFF})
	want := []byte{0x00, 0xFF, 0xFF}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %x, want %x", got, want)
	}
	// Default mask flips exactly one bit.
	one := Apply([]byte{0x00}, Fault{Kind: BitFlip})
	if one[0] != 0x01 {
		t.Fatalf("default mask: got %x", one[0])
	}
}

func TestApplyGarbageDeterministic(t *testing.T) {
	data := []byte("headtail")
	f := Fault{Kind: Garbage, Offset: 4, Len: 16, Seed: 42}
	a := Apply(data, f)
	b := Apply(data, f)
	if !bytes.Equal(a, b) {
		t.Fatal("garbage splice not deterministic")
	}
	if len(a) != len(data)+16 {
		t.Fatalf("len = %d, want %d", len(a), len(data)+16)
	}
	if string(a[:4]) != "head" || string(a[20:]) != "tail" {
		t.Fatalf("splice misplaced: %q", a)
	}
	c := Apply(data, Fault{Kind: Garbage, Offset: 4, Len: 16, Seed: 43})
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical garbage")
	}
}

func TestReaderTruncate(t *testing.T) {
	fr := NewReader(bytes.NewReader([]byte("0123456789")), Fault{Kind: Truncate, Offset: 6})
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "012345" {
		t.Fatalf("got %q", got)
	}
}

func TestReaderBitFlip(t *testing.T) {
	fr := NewReader(bytes.NewReader([]byte{1, 2, 3, 4}), Fault{Kind: BitFlip, Offset: 2, XorMask: 0xF0})
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 2, 0xF3, 4}) {
		t.Fatalf("got %x", got)
	}
}

func TestReaderShortRead(t *testing.T) {
	fr := NewReader(bytes.NewReader([]byte("abcdefgh")), Fault{Kind: ShortRead, Offset: 2, Len: 3})
	buf := make([]byte, 8)
	// First read stops right before the short-read span.
	n, err := fr.Read(buf)
	if err != nil || n != 2 {
		t.Fatalf("read 1: n=%d err=%v", n, err)
	}
	// Inside the span: one byte per call.
	for i := 0; i < 3; i++ {
		n, err = fr.Read(buf)
		if err != nil || n != 1 {
			t.Fatalf("short read %d: n=%d err=%v", i, n, err)
		}
	}
	// Past the span: full reads again.
	n, err = fr.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("read after span: n=%d err=%v", n, err)
	}
}

func TestReaderTransient(t *testing.T) {
	fr := NewReader(bytes.NewReader([]byte("abcd")), Fault{Kind: Transient, Offset: 2, Count: 2})
	buf := make([]byte, 4)
	n, err := fr.Read(buf)
	if err != nil || n != 4 {
		// bytes.Reader serves everything in one call, so the fault
		// fires on the very first read instead.
		var te *TransientError
		if !errors.As(err, &te) {
			t.Fatalf("read 1: n=%d err=%v", n, err)
		}
		// Second failure, then success.
		if _, err = fr.Read(buf); !errors.As(err, &te) {
			t.Fatalf("read 2: %v", err)
		}
		if n, err = fr.Read(buf); err != nil || n != 4 {
			t.Fatalf("read 3: n=%d err=%v", n, err)
		}
	}
	var te *TransientError
	if !errors.As(&TransientError{}, &te) || !te.Temporary() {
		t.Fatal("TransientError must be Temporary")
	}
}
