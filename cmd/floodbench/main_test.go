package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestTable1 runs the default mode: the capacity model's nine Table 1
// rows and no live replay.
func TestTable1(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^\d+ +(no|yes) +\d+ `).FindAllString(out.String(), -1)
	if len(rows) != 9 {
		t.Errorf("table has %d rows, want 9:\n%s", len(rows), out.String())
	}
	if strings.Contains(out.String(), "live replay") {
		t.Errorf("default mode ran the live replay:\n%s", out.String())
	}
}

// TestLive floods a loopback server with RETRY off and on, and after
// each flood a legitimate client completes — one round trip later when
// RETRY validates its address.
func TestLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live replay")
	}
	var out bytes.Buffer
	if err := run([]string{"-live", "-live-n", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	rtts := map[string]int{}
	for _, m := range regexp.MustCompile(`(?m)^retry=(\w+) +sent=50 .*legit client: completed in (\d+) RTTs$`).FindAllStringSubmatch(out.String(), -1) {
		rtts[m[1]], _ = strconv.Atoi(m[2])
	}
	off, on := rtts["false"], rtts["true"]
	if off == 0 || on != off+1 {
		t.Errorf("legitimate client RTTs: retry off %d, on %d; want both completed, on = off+1:\n%s", off, on, out.String())
	}
}
