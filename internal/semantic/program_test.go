package semantic

import (
	"fmt"
	"strings"
	"testing"
)

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []Value{
		String(""), String("hello"), String(strings.Repeat("x", 300)),
		Number(0), Number(-12.5), Number(1 << 52), Bool(true), Bool(false),
	}
	for _, v := range vals {
		enc := EncodeValue(v)
		if len(enc) == 0 {
			t.Fatalf("EncodeValue(%v) empty", v)
		}
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	for _, bad := range [][]byte{{}, {0}, {9, 1}, {2, 1, 2}, {3}, {3, 1, 2}} {
		if _, err := DecodeValue(bad); err == nil {
			t.Errorf("DecodeValue(%v) succeeded", bad)
		}
	}
	if _, err := DecodeEventData([]byte{0, 5, 1}); err == nil {
		t.Error("truncated event frame accepted")
	}
}

func TestReqFieldNames(t *testing.T) {
	for f := ReqField(0); f < NumReqFields; f++ {
		name := f.String()
		got, ok := reqFieldByName(name)
		if !ok || got != f {
			t.Errorf("field %d name %q does not round trip", f, name)
		}
	}
	if fmt.Sprint(ReqField(99)) != "req(99)" {
		t.Error("out-of-range field name")
	}
}
