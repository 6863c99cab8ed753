package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sampleRecords builds a representative session flush: instruction,
// several videos (some repeated — replacement batches), negative
// deltas, extreme values.
func sampleRecords() []Record {
	return []Record{
		{Kind: KindInstruction, InstructionNs: 1_830_000_000},
		{Kind: KindEngagement, VideoID: "v1", LoadNs: 812_345_678, TimeOnVideoNs: 30_000_000_000,
			OutOfFocusNs: 0, Plays: 1, Pauses: 0, Seeks: 2, WatchedFraction: 0.95},
		{Kind: KindEngagement, VideoID: "v2", LoadNs: 799_000_001, TimeOnVideoNs: 31_500_000_000,
			OutOfFocusNs: 1_200_000_000, Plays: 2, Pauses: 1, Seeks: 0, WatchedFraction: 1},
		{Kind: KindEngagement, VideoID: "v1", LoadNs: 650_000_000, TimeOnVideoNs: 29_000_000_000,
			OutOfFocusNs: 0, Plays: 1, Pauses: 0, Seeks: 7, WatchedFraction: 0.5},
		{Kind: KindEngagement, VideoID: "v3", LoadNs: -5_000_000, TimeOnVideoNs: math.MaxInt64,
			OutOfFocusNs: math.MinInt64, Plays: -3, Pauses: 9, Seeks: 0, WatchedFraction: math.Inf(1)},
		{Kind: KindInstruction, InstructionNs: 0},
	}
}

func TestRoundTrip(t *testing.T) {
	cases := map[string][]Record{
		"empty":        {},
		"instruction":  {{Kind: KindInstruction, InstructionNs: 42}},
		"sessionFlush": sampleRecords(),
		"nanFraction":  {{Kind: KindEngagement, VideoID: "v", WatchedFraction: math.NaN()}},
		"maxVideoID":   {{Kind: KindEngagement, VideoID: strings.Repeat("v", MaxString)}},
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			data := AppendBatch(nil, recs)
			dec := NewDecoder()
			got, err := dec.Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				want, have := recs[i], got[i]
				// NaN != NaN: compare fraction by bits.
				if math.Float64bits(want.WatchedFraction) != math.Float64bits(have.WatchedFraction) {
					t.Fatalf("record %d fraction bits differ", i)
				}
				want.WatchedFraction, have.WatchedFraction = 0, 0
				if want != have {
					t.Fatalf("record %d: got %+v, want %+v", i, have, want)
				}
			}
		})
	}
}

// TestEncodeDeterministic pins that the same records always produce
// the same bytes, including across a reused Encoder — table order is
// first-use order, not map order.
func TestEncodeDeterministic(t *testing.T) {
	recs := sampleRecords()
	var e Encoder
	first := e.AppendBatch(nil, recs)
	for i := 0; i < 10; i++ {
		if again := e.AppendBatch(nil, recs); !bytes.Equal(first, again) {
			t.Fatalf("iteration %d produced different bytes", i)
		}
		if again := AppendBatch(nil, recs); !bytes.Equal(first, again) {
			t.Fatalf("one-shot encoder diverged from reused encoder")
		}
	}
}

// TestAppendExtends pins that AppendBatch appends rather than
// clobbering dst.
func TestAppendExtends(t *testing.T) {
	prefix := []byte("prefix")
	out := AppendBatch(append([]byte(nil), prefix...), sampleRecords())
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendBatch clobbered dst")
	}
	if _, err := NewDecoder().Decode(out[len(prefix):]); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := AppendBatch(nil, sampleRecords())
	cases := map[string][]byte{
		"empty":          {},
		"shortMagic":     []byte("EY"),
		"badMagic":       []byte("EYB2....."),
		"headerOnly":     []byte(magic),
		"truncatedTail":  good[:len(good)-3],
		"trailingByte":   append(append([]byte(nil), good...), 0),
		"unknownKind":    append([]byte(magic), 1, 5, 'b', 'o', 'g', 'u', 's'),
		"giantKindCount": append([]byte(magic), 0xff, 0xff, 0xff, 0xff, 0x07),
		"longVideoID":    AppendBatch(nil, []Record{{Kind: KindEngagement, VideoID: strings.Repeat("v", MaxString+1)}}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewDecoder().Decode(data); err == nil {
				t.Fatalf("decode accepted %q", data)
			}
		})
	}
}

// TestDecodeRejectsOutOfTableIndexes hand-builds a batch whose record
// references a video index past the table.
func TestDecodeRejectsOutOfTableIndexes(t *testing.T) {
	data := []byte(magic)
	data = append(data, 1)                             // 1 kind
	data = append(data, byte(len(kindNameEngagement))) // len
	data = append(data, kindNameEngagement...)         //
	data = append(data, 0)                             // 0 videos
	data = append(data, 1)                             // 1 record
	data = append(data, 2, 0, 5)                       // bodyLen=2: kindIdx=0, vidIdx=5
	if _, err := NewDecoder().Decode(data); err == nil {
		t.Fatal("decode accepted out-of-table video index")
	}
}

// TestDecodeZeroAllocs is the acceptance gate: a warm pooled decoder
// decodes a full batch — hundreds of records — with exactly zero
// allocations, i.e. 0 allocs/record on the steady-state path.
func TestDecodeZeroAllocs(t *testing.T) {
	var recs []Record
	recs = append(recs, Record{Kind: KindInstruction, InstructionNs: 1_000_000_000})
	vids := []string{"va", "vb", "vc", "vd"}
	for i := 0; i < 256; i++ {
		recs = append(recs, Record{
			Kind: KindEngagement, VideoID: vids[i%len(vids)],
			LoadNs: int64(700_000_000 + i*1_000_003), TimeOnVideoNs: int64(30_000_000_000 - i*7),
			OutOfFocusNs: int64(i * 13), Plays: 1 + i%3, Pauses: i % 2, Seeks: i % 5,
			WatchedFraction: float64(i) / 256,
		})
	}
	data := AppendBatch(nil, recs)

	dec := GetDecoder()
	defer PutDecoder(dec)
	if _, err := dec.Decode(data); err != nil { // warm: record slice + interned IDs
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		got, err := dec.Decode(data)
		if err != nil || len(got) != len(recs) {
			t.Fatalf("decode: %d records, err %v", len(got), err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state decode allocates %.2f allocs/batch, want 0 (0 allocs/record)", avg)
	}
}

// TestDecodeFromZeroAllocs extends the gate over the body-read path
// the HTTP handler uses.
func TestDecodeFromZeroAllocs(t *testing.T) {
	data := AppendBatch(nil, sampleRecords())
	dec := GetDecoder()
	defer PutDecoder(dec)
	r := bytes.NewReader(data)
	if _, err := dec.DecodeFrom(r); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		r.Reset(data)
		if _, err := dec.DecodeFrom(r); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("DecodeFrom allocates %.2f allocs/op at steady state, want 0", avg)
	}
}

// TestEncodeZeroAllocs gates the pooled encoder the platform journals
// JSON event bodies through: a warm Encoder reuses its buffer and
// intern table, so a steady-state Encode allocates nothing, and its
// bytes equal the one-shot AppendBatch's.
func TestEncodeZeroAllocs(t *testing.T) {
	recs := sampleRecords()
	enc := GetEncoder()
	defer PutEncoder(enc)
	if got := enc.Encode(recs); !bytes.Equal(got, AppendBatch(nil, recs)) {
		t.Fatal("Encode diverged from AppendBatch")
	}
	avg := testing.AllocsPerRun(200, func() { enc.Encode(recs) })
	if avg != 0 {
		t.Fatalf("steady-state Encode allocates %.2f allocs/op, want 0", avg)
	}
}

// TestDecodeFromKeepsRawBytes pins the Bytes contract the journal
// depends on: the raw payload of the last DecodeFrom, byte-exact.
func TestDecodeFromKeepsRawBytes(t *testing.T) {
	data := AppendBatch(nil, sampleRecords())
	dec := NewDecoder()
	if _, err := dec.DecodeFrom(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Bytes(), data) {
		t.Fatal("Bytes() is not the raw payload just read")
	}
}

// TestInternCacheBounded cycles more distinct video IDs than the
// intern cap and checks the cache resets instead of growing without
// bound.
func TestInternCacheBounded(t *testing.T) {
	dec := NewDecoder()
	rec := []Record{{Kind: KindEngagement, VideoID: ""}}
	for i := 0; i < internCap+100; i++ {
		rec[0].VideoID = "ghost-" + strings.Repeat("x", 1+i%7) + string(rune('a'+i%26)) + itoa(i)
		if _, err := dec.Decode(AppendBatch(nil, rec)); err != nil {
			t.Fatal(err)
		}
	}
	if len(dec.intern) > internCap {
		t.Fatalf("intern cache grew to %d entries (cap %d)", len(dec.intern), internCap)
	}
}

func itoa(i int) string {
	var b [20]byte
	n := len(b)
	for {
		n--
		b[n] = byte('0' + i%10)
		if i /= 10; i == 0 {
			return string(b[n:])
		}
	}
}

// TestReDecodeCanonical pins the canonicalization invariant the fuzz
// targets rely on: decode → re-encode → decode yields the same
// records, and (for encoder-produced input) the same bytes.
func TestReDecodeCanonical(t *testing.T) {
	data := AppendBatch(nil, sampleRecords())
	dec := NewDecoder()
	recs, err := dec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	again := AppendBatch(nil, recs)
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding decoded records changed the bytes")
	}
}
