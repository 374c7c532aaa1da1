package remote

// Native fuzz targets for the wire surfaces that parse attacker-controlled
// bytes with no prior trust: the frame reader (the first thing any
// connection's bytes hit) together with the status request's since token
// (the body every watch sends), and the trace-span sidecar decoder
// (hostile worker responses must not crash or bloat the coordinator
// through its observability channel). Seeds mirror the
// property-test corpora: valid encodings from the real encoder plus the
// known hostile shapes (forged counts, truncations, oversized headers).

import (
	"bytes"
	mrand "math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

// fuzzMaxFrame keeps the fuzz executions snappy: a 1 MiB cap exercises
// every code path (chunked reads included) without megabyte allocations
// per input.
const fuzzMaxFrame = 1 << 20

func FuzzDecodeFrame(f *testing.F) {
	// Valid frames straight from the encoder, spanning both read paths
	// (≤ frameReadChunk and the chunked copy above it).
	for _, payload := range [][]byte{
		nil,
		{0x01},
		bytes.Repeat([]byte{0xAB}, 300),
		bytes.Repeat([]byte{0xCD}, frameReadChunk+17),
		{opStatus},
		{opStatus, 0xFF, 0xFF, 0xFF, 0xFF},
		append([]byte{statusOK}, forgedStatus()...),
		watchRequest(&Unseen),
		watchRequest(&Stamp{BootID: 0x9E3779B97F4A7C15, Gen: 412, Built: true}),
		watchRequest(&Stamp{BootID: 1}),
		watchRequest(&Stamp{BootID: 7, Gen: 3, Built: true})[:12],
		append(watchRequest(&Stamp{BootID: 7, Gen: 3})[:17], 0xFF),
		append(watchRequest(&Stamp{BootID: 7, Gen: 3, Built: true}), 0x00),
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload, fuzzMaxFrame); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Real opStatus responses, the frame every serving request reads, real
	// stage-1 requests and responses, the frames every cache miss sends, and
	// real planning-digest requests and responses.
	payloads := [][]byte{{opPlanStats}}
	for _, st := range statusCases() {
		e := &enc{b: []byte{statusOK}}
		appendStatus(e, st)
		payloads = append(payloads, e.b)
	}
	for _, r := range stage1Cases() {
		e := &enc{b: []byte{opFastSearchBatch}}
		appendStage1Request(e, r)
		payloads = append(payloads, e.b)
		e = &enc{b: []byte{statusOK}}
		appendHitLists(e, [][]core.ResultObject{randObjects(mrand.New(mrand.NewSource(int64(len(r.Texts)))), 4)})
		payloads = append(payloads, e.b)
	}
	for _, st := range []core.PlanStats{{}, {Entities: 9, Dim: 2, SampleEvery: 1, Sample: []float32{0.6, 0.8},
		Terms: []core.TermCount{{Name: "car", Objects: 3, Frames: 2}}, Rungs: []core.Rung{{NProbe: 4, MinRecall: 0.9, MeanRecall: 0.95}},
		Calibrated: true, Margin: 0.02}} {
		e := &enc{b: []byte{statusOK}}
		appendPlanStats(e, st)
		payloads = append(payloads, e.b)
	}
	for _, payload := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload, fuzzMaxFrame); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Hostile shapes: truncated header, truncated body, oversized and
	// absurd declared lengths.
	f.Add([]byte{0x05, 0x00})
	f.Add([]byte{0x10, 0x00, 0x00, 0x00, 0xFF})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x01, 0x00, 0x10, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), fuzzMaxFrame)
		if err != nil {
			return
		}
		if len(payload) > fuzzMaxFrame {
			t.Fatalf("readFrame returned %d bytes past the %d cap", len(payload), fuzzMaxFrame)
		}
		if len(data) < 4+len(payload) {
			t.Fatalf("readFrame conjured %d payload bytes from a %d-byte input", len(payload), len(data))
		}
		if !bytes.Equal(payload, data[4:4+len(payload)]) {
			t.Fatal("readFrame returned bytes that differ from the wire payload")
		}
		// What was read must re-encode to the exact bytes consumed:
		// write-read-write is the identity on accepted frames.
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload, fuzzMaxFrame); err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:4+len(payload)]) {
			t.Fatal("write∘read is not the identity on an accepted frame")
		}
		reread, err := readFrame(bytes.NewReader(buf.Bytes()), fuzzMaxFrame)
		if err != nil || !bytes.Equal(reread, payload) {
			t.Fatalf("round-trip mismatch: err=%v", err)
		}
		// A status request's since token is the one request body a worker
		// decodes on every watch: what it accepts must re-encode to the
		// bytes it read.
		if len(payload) > 0 && payload[0] == opStatus {
			d := &dec{b: payload[1:]}
			since := readStatusRequest(d)
			if d.finish() != nil {
				return
			}
			if !bytes.Equal(watchRequest(since), payload) {
				t.Fatalf("status request % x decodes to %+v, which re-encodes differently", payload, since)
			}
		}
	})
}

// watchRequest is the opStatus request payload a client sends for since
// (nil: a read answered at once).
func watchRequest(since *Stamp) []byte {
	e := &enc{b: []byte{opStatus}}
	appendStatusRequest(e, since)
	return e.b
}

func FuzzReadSpans(f *testing.F) {
	// Valid encodings from the real encoder, mirroring the property-test
	// corpus (randSpans mixes roots and forged parent indices already).
	rng := mrand.New(mrand.NewSource(11))
	for i := 0; i < 8; i++ {
		e := &enc{}
		appendSpans(e, randSpans(rng, 12))
		f.Add(e.b)
	}
	// The known hostile shape: a header claiming more spans than the body
	// could hold (TestSpansForgedCount's corpus).
	for _, forged := range []uint32{2, 1 << 16, 1<<32 - 1} {
		e := &enc{}
		e.u32(forged)
		e.str("worker.stage1")
		e.str("")
		e.u32(0xFFFFFFFF)
		e.i64(0)
		e.i64(int64(time.Millisecond))
		f.Add(e.b)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := &dec{b: data}
		spans := readSpans(d)
		if err := d.finish(); err != nil {
			return
		}
		// Accepted input: every span must be accounted for by real bytes
		// (the count bound at work) and re-encode to the same payload.
		if len(data) < len(spans)*encSpanMinSize {
			t.Fatalf("%d spans decoded from %d bytes: forged count got past d.count", len(spans), len(data))
		}
		e := &enc{}
		appendSpans(e, spans)
		if !bytes.Equal(e.b, data) {
			t.Fatal("read∘write is not the identity on an accepted span payload")
		}
	})
}
