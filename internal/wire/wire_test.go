package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripRequest(t *testing.T) {
	env := &Envelope{
		Kind: KindRequest,
		Request: &Request{
			ID:      42,
			Service: "cal.phil",
			Method:  "GetFreeSlots",
			Args:    Args{"from": "2003-04-22", "to": "2003-04-29", "n": float64(3)},
			Caller:  "andy",
		},
	}
	var buf bytes.Buffer
	appendFrame(t, &buf, env)
	got, err := NewFrameReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Request, env.Request)
	}
}

func TestRoundTripResponse(t *testing.T) {
	res, err := Marshal(map[string]int{"slots": 7})
	if err != nil {
		t.Fatal(err)
	}
	env := &Envelope{
		Kind:     KindResponse,
		Response: &Response{ID: 42, OK: true, Result: res},
	}
	var buf bytes.Buffer
	appendFrame(t, &buf, env)
	got, err := NewFrameReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := Unmarshal(got.Response.Result, &out); err != nil {
		t.Fatal(err)
	}
	if out["slots"] != 7 {
		t.Fatalf("result = %v", out)
	}
}

func TestRoundTripEvent(t *testing.T) {
	env := &Envelope{
		Kind:  KindEvent,
		Event: &Event{Name: "link.expired", Source: "phil", Args: Args{"link": "L1"}},
	}
	var buf bytes.Buffer
	appendFrame(t, &buf, env)
	got, err := NewFrameReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Event.Name != "link.expired" || got.Event.Args.String("link") != "L1" {
		t.Fatalf("event mismatch: %+v", got.Event)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		appendFrame(t, &buf, &Envelope{Kind: KindRequest, Request: &Request{ID: uint64(i), Service: "s", Method: "m"}})
	}
	fr := NewFrameReader(&buf)
	for i := 0; i < 10; i++ {
		env, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Request.ID != uint64(i) {
			t.Fatalf("frame %d has ID %d", i, env.Request.ID)
		}
	}
	if _, err := fr.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	_, err := NewFrameReader(bytes.NewReader(hdr[:])).Read()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	appendFrame(t, &buf, &Envelope{Kind: KindRequest, Request: &Request{ID: 1, Service: "s", Method: "m"}})
	trunc := buf.Bytes()[:buf.Len()-3]
	_, err := NewFrameReader(bytes.NewReader(trunc)).Read()
	if !errors.Is(err, ErrShortFrame) {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

// TestReadFrameGarbageJSON: a body without the v3 magic byte — garbage,
// or a well-formed JSON envelope — is a decode error, not a frame.
func TestReadFrameGarbageJSON(t *testing.T) {
	for _, body := range []string{"{not json", `{"kind":"request","request":{"id":1,"service":"s","method":"m"}}`, ""} {
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		buf.Write(hdr[:])
		buf.WriteString(body)
		if _, err := NewFrameReader(&buf).Read(); !errors.Is(err, ErrBadV3Frame) {
			t.Fatalf("body %q: err = %v, want ErrBadV3Frame", body, err)
		}
	}
}

func TestRemoteErrorIs(t *testing.T) {
	err := &RemoteError{Code: CodeConflict, Service: "cal.phil", Method: "ReserveSlot", Msg: "slot taken"}
	if !errors.Is(err, &RemoteError{Code: CodeConflict}) {
		t.Fatal("code-only match failed")
	}
	if errors.Is(err, &RemoteError{Code: CodeAuth}) {
		t.Fatal("matched wrong code")
	}
	if !errors.Is(err, &RemoteError{Code: CodeConflict, Service: "cal.phil"}) {
		t.Fatal("code+service match failed")
	}
	if errors.Is(err, &RemoteError{Code: CodeConflict, Service: "cal.andy"}) {
		t.Fatal("matched wrong service")
	}
	if !strings.Contains(err.Error(), "slot taken") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestCodeOf(t *testing.T) {
	if got := CodeOf(nil); got != CodeOK {
		t.Fatalf("CodeOf(nil) = %q", got)
	}
	if got := CodeOf(errors.New("plain")); got != CodeInternal {
		t.Fatalf("CodeOf(plain) = %q", got)
	}
	wrapped := &RemoteError{Code: CodeUnavailable, Msg: "down"}
	if got := CodeOf(wrapped); got != CodeUnavailable {
		t.Fatalf("CodeOf(remote) = %q", got)
	}
}

func TestArgsAccessors(t *testing.T) {
	a := Args{
		"s":    "hello",
		"f":    float64(9),
		"i":    7,
		"i64":  int64(11),
		"b":    true,
		"list": []any{"x", "y", 3},
		"strs": []string{"p", "q"},
	}
	if a.String("s") != "hello" || a.String("missing") != "" || a.String("f") != "" {
		t.Fatal("String accessor wrong")
	}
	if a.Int("f") != 9 || a.Int("i") != 7 || a.Int("missing") != 0 {
		t.Fatal("Int accessor wrong")
	}
	if a.Int64("i64") != 11 || a.Int64("f") != 9 {
		t.Fatal("Int64 accessor wrong")
	}
	if !a.Bool("b") || a.Bool("s") {
		t.Fatal("Bool accessor wrong")
	}
	if got := a.Strings("list"); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("Strings(list) = %v", got)
	}
	if got := a.Strings("strs"); !reflect.DeepEqual(got, []string{"p", "q"}) {
		t.Fatalf("Strings(strs) = %v", got)
	}
	if a.Strings("missing") != nil {
		t.Fatal("Strings(missing) should be nil")
	}
}

func TestArgsDecode(t *testing.T) {
	type slot struct {
		Day  string `json:"day"`
		Hour int    `json:"hour"`
	}
	a := Args{"slot": map[string]any{"day": "2003-04-22", "hour": 14}}
	var s slot
	if err := a.Decode("slot", &s); err != nil {
		t.Fatal(err)
	}
	if s.Day != "2003-04-22" || s.Hour != 14 {
		t.Fatalf("decoded %+v", s)
	}
	if err := a.Decode("absent", &s); err == nil {
		t.Fatal("expected error for missing key")
	}
}

// TestFrameRoundTripProperty checks that any string payload survives a
// frame round trip intact.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(service, method, caller string, id uint64) bool {
		env := &Envelope{Kind: KindRequest, Request: &Request{
			ID: id, Service: service, Method: method, Caller: caller,
		}}
		var buf bytes.Buffer
		appendFrame(t, &buf, env)
		got, err := NewFrameReader(&buf).Read()
		if err != nil {
			return false
		}
		r := got.Request
		return r.ID == id && r.Service == service && r.Method == method && r.Caller == caller
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	env := &Envelope{
		Kind: KindRequest,
		Request: &Request{
			ID: 1, Service: "cal.phil", Method: "GetFreeSlots",
			Args: Args{"from": "2003-04-22", "to": "2003-04-29"},
		},
	}
	b.ReportAllocs()
	var buf bytes.Buffer
	fr := NewFrameReader(&buf)
	for i := 0; i < b.N; i++ {
		f, err := EncodeFrame(env)
		if err != nil {
			b.Fatal(err)
		}
		buf.Write(f.Bytes())
		f.Release()
		if _, err := fr.Read(); err != nil {
			b.Fatal(err)
		}
	}
}
