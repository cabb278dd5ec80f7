package main

import (
	"strings"
	"testing"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc": "runtime",
		"flexsnoop/internal/protocol.(*Engine).onRead":                                          "flexsnoop/internal/protocol",
		"flexsnoop/internal/hotmap.(*Table[go.shape.uint64]).Get":                               "flexsnoop/internal/hotmap",
		"flexsnoop/internal/hotmap.(*Table[go.shape.struct { flexsnoop/internal/x.a }]).Upsert": "flexsnoop/internal/hotmap",
		"flexsnoop/internal/protocol.(*Engine).handle.func1":                                    "flexsnoop/internal/protocol",
		"net/http.(*persistConn).readLoop":                                                      "net/http",
		"internal/runtime/maps.(*Map).getWithKeyFast64":                                         "internal/runtime/maps",
		"encoding/json.(*decodeState).object":                                                   "encoding/json",
		"runtime.add (inline)":                                                                  "runtime",
		"flexsnoop/internal/sim.New[...]":                                                       "flexsnoop/internal/sim",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSelfMillis(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 1250ms, 100% of 1250ms total
      flat  flat%   sum%        cum   cum%
     500ms 40.00% 40.00%      600ms 48.00%  flexsnoop/internal/protocol.(*Engine).onRead
     200ms 16.00% 56.00%      200ms 16.00%  flexsnoop/internal/hotmap.(*Table[go.shape.struct { a int }]).Get
     150ms 12.00% 68.00%      150ms 12.00%  runtime.mallocgc
     100ms  8.00% 76.00%      100ms  8.00%  internal/runtime/maps.(*Map).getWithKeyFast64
      50ms  4.00% 80.00%       50ms  4.00%  runtime/pprof.(*profileBuilder).addCPUData
      50ms  4.00% 84.00%       50ms  4.00%  net/http.(*conn).serve
      20ms  1.60% 85.60%       20ms  1.60%  net/http/internal.(*chunkedReader).Read
     180ms 14.40%   100%      180ms 14.40%  syscall.Syscall6
         0     0%   100%     1250ms   100%  main.main
`
	self, err := selfMillis([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range map[string]float64{
		"protocol": 500, "hotmap": 200, "runtime": 250, "net_http": 70, "cache": 0,
	} {
		if self[row] != want {
			t.Errorf("%s = %g ms, want %g", row, self[row], want)
		}
	}
	if _, err := selfMillis([]byte("no table here\n")); err == nil {
		t.Errorf("output without a table parsed")
	}
	if _, err := selfMillis([]byte(strings.Replace(top, "500ms", "5x00", 1))); err == nil {
		t.Errorf("a malformed value parsed")
	}
}
