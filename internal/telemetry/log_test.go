package telemetry

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestLogLevelParsing(t *testing.T) {
	for in, want := range map[string]LogLevel{
		"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "off": LevelOff, "none": LevelOff,
	} {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLogLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("bad level parsed")
	}
}

func TestLogDefaultIsOff(t *testing.T) {
	l := NewLog(16)
	c := l.Component("ledger")
	c.Info("dropped", Int("n", 1))
	c.Error("also dropped")
	if got := l.Events(); len(got) != 0 {
		t.Fatalf("%d events retained while off", len(got))
	}
}

func TestLogLevelsFilter(t *testing.T) {
	l := NewLog(16)
	l.SetDefaultLevel(LevelWarn)
	c := l.Component("market")
	c.Debug("no")
	c.Info("no")
	c.Warn("yes")
	c.Error("yes too", Err(errors.New("boom")))
	got := l.Events()
	if len(got) != 2 || got[0].Level != "warn" || got[1].Level != "error" {
		t.Fatalf("events: %+v", got)
	}
	if got[1].Fields[0].K != "err" || got[1].Fields[0].V != "boom" {
		t.Fatalf("error field: %+v", got[1].Fields)
	}
}

func TestLogFieldFormatting(t *testing.T) {
	l := NewLog(16)
	l.SetDefaultLevel(LevelDebug)
	l.Component("x").Info("kv",
		Str("s", "v"), Int("i", -3), I64("i64", 9), U64("u", 7),
		F64("f", 1.5), Bool("b", true), Err(nil))
	ev := l.Events()[0]
	want := map[string]string{
		"s": "v", "i": "-3", "i64": "9", "u": "7", "f": "1.5", "b": "true", "err": "<nil>",
	}
	if len(ev.Fields) != len(want) {
		t.Fatalf("%d fields", len(ev.Fields))
	}
	for _, f := range ev.Fields {
		if want[f.K] != f.V {
			t.Fatalf("field %s = %q, want %q", f.K, f.V, want[f.K])
		}
	}
	text := ev.Text()
	if !strings.Contains(text, "kv s=v i=-3") {
		t.Fatalf("text: %s", text)
	}
}

func TestLogSetLevelSpec(t *testing.T) {
	l := NewLog(16)
	if err := l.SetLevelSpec("info,ledger=debug,gossip=off"); err != nil {
		t.Fatal(err)
	}
	l.Component("ledger").Debug("kept")
	l.Component("gossip").Error("silenced")
	l.Component("market").Debug("filtered")
	l.Component("market").Info("kept")
	got := l.Events()
	if len(got) != 2 {
		t.Fatalf("events: %+v", got)
	}
	if got[0].Component != "ledger" || got[1].Component != "market" {
		t.Fatalf("events: %+v", got)
	}
	// Overrides survive a later default change.
	l.SetDefaultLevel(LevelError)
	l.Component("ledger").Debug("still kept")
	if got := l.Events(); len(got) != 3 {
		t.Fatalf("override lost: %+v", got)
	}
	if err := l.SetLevelSpec("ledger=loud"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestLogRingRetention(t *testing.T) {
	l := NewLog(4)
	l.SetDefaultLevel(LevelDebug)
	c := l.Component("x")
	for i := 0; i < 7; i++ {
		c.Info("m", Int("i", i))
	}
	got := l.Events()
	if len(got) != 4 {
		t.Fatalf("%d events in ring of 4", len(got))
	}
	for i, ev := range got {
		if want := 3 + i; ev.Fields[0].V != itoa(want) {
			t.Fatalf("event %d: i=%s, want %d (not oldest-first)", i, ev.Fields[0].V, want)
		}
	}
	l.Reset()
	if len(l.Events()) != 0 {
		t.Fatal("reset kept events")
	}
	c.Info("after")
	if len(l.Events()) != 1 {
		t.Fatal("log dead after reset")
	}
}

// TestLogSeqSurvivesReset pins that Reset empties the ring but never
// rewinds Seq, so a /v1/logs cursor taken before a reset stays valid.
func TestLogSeqSurvivesReset(t *testing.T) {
	l := NewLog(2)
	l.SetDefaultLevel(LevelDebug)
	c := l.Component("x")
	for i := 0; i < 3; i++ {
		c.Info("m")
	}
	l.Reset()
	c.Info("after")
	if got := l.Events(); len(got) != 1 || got[0].Seq != 4 {
		t.Fatalf("events after reset = %+v, want one with Seq 4", got)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestLogOutputMirror(t *testing.T) {
	l := NewLog(16)
	l.SetDefaultLevel(LevelInfo)
	var sb strings.Builder
	l.SetOutput(&sb)
	l.SetNode("n1")
	l.Component("api").Info("hello", Str("k", "v"))
	if !strings.Contains(sb.String(), "hello k=v") {
		t.Fatalf("mirror: %q", sb.String())
	}
	if l.Events()[0].Node != "n1" {
		t.Fatal("node not stamped")
	}
}

func TestLogNilComponentInert(t *testing.T) {
	var c *Component
	c.Debug("x")
	c.Info("x")
	c.Warn("x")
	c.Error("x")
	if c.Enabled(LevelError) {
		t.Fatal("nil component enabled")
	}
}

func TestLogConcurrent(t *testing.T) {
	l := NewLog(64)
	l.SetDefaultLevel(LevelDebug)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := l.Component("comp")
			for i := 0; i < 200; i++ {
				c.Info("m", Int("w", w), Int("i", i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = l.Events()
			_ = l.Components()
		}
	}()
	wg.Wait()
	<-done
	if got := l.Events(); len(got) != 64 {
		t.Fatalf("%d events after concurrent overflow", len(got))
	}
}
