package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"gridgather/internal/codec"
)

// forgedSnapshot encodes a snapshot by hand: the paper's configuration
// under FSYNC, a population that started at initial robots and has merged
// down to three in a row. The world's slot space matches initial, as in
// every snapshot a session writes.
func forgedSnapshot(initial uint64) []byte {
	b := []byte("GGSS")
	b = codec.AppendUvarint(b, 2) // format version
	b = codec.AppendInt(b, 0)     // radius: the paper's
	b = codec.AppendInt(b, 0)     // L: the paper's
	b = codec.AppendString(b, "") // scheduler: FSYNC
	b = codec.AppendVarint(b, 0)  // scheduler seed
	b = codec.AppendString(b, "") // algorithm: the paper's
	b = codec.AppendString(b, "") // faults: none
	b = codec.AppendInt(b, 0)     // round limit
	b = codec.AppendInt(b, 0)     // no-merge limit
	b = codec.AppendBool(b, false)
	b = codec.AppendBool(b, false)
	b = codec.AppendUvarint(b, initial)
	b = codec.AppendUvarint(b, 0)                               // no abort
	for _, v := range []uint64{0, initial - 3, 0, 0, 1, 0, 0} { // round, merges, moves, runs started, next run ID, last merge, round merges
		b = codec.AppendUvarint(b, v)
	}
	b = codec.AppendUvarint(b, initial) // slot space
	b = codec.AppendBool(b, false)      // no clocks
	b = codec.AppendUvarint(b, 3)
	for x := 0; x < 3; x++ {
		b = codec.AppendInt(b, x)
		b = codec.AppendInt(b, 0)
		b = codec.AppendUvarint(b, uint64(x)) // slot
		b = codec.AppendUvarint(b, 0)         // runs
	}
	return b
}

func uploadSnapshot(t *testing.T, base string, snap []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bad ErrorResponse
	if resp.StatusCode != http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, bad.Error
}

// An upload is held to the create limit: a snapshot declaring more than
// maxRobots initial robots is refused with 400 before Restore sizes
// anything for it, and the daemon keeps serving.
func TestRestoreUploadRobotLimit(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	base := hs.URL

	if code, msg := uploadSnapshot(t, base, forgedSnapshot(uint64(maxRobots))); code != http.StatusCreated {
		t.Fatalf("upload at the limit: %d %q", code, msg)
	}
	code, msg := uploadSnapshot(t, base, forgedSnapshot(uint64(maxRobots)+1))
	if code != http.StatusBadRequest || !strings.Contains(msg, "robot limit") {
		t.Fatalf("upload over the limit: %d %q, want 400 naming the robot limit", code, msg)
	}
	// A 7-byte world declaring 2^31-1 slots for a header of 3 robots.
	tiny := forgedSnapshot(3)
	tiny = append(tiny[:len(tiny)-15], 0xff, 0xff, 0xff, 0xff, 0x07, 0, 0)
	if code, msg := uploadSnapshot(t, base, tiny); code != http.StatusBadRequest {
		t.Fatalf("upload of a forged slot space: %d %q, want 400", code, msg)
	}

	info := createSession(t, base, CreateRequest{Workload: "hollow", N: 40})
	stepSession(t, base, info.ID, StepRequest{Rounds: 3})
	var list ListResponse
	doJSON(t, "GET", base+"/v1/sessions", nil, &list)
	if len(list.Sessions) != 2 {
		t.Fatalf("sessions %+v, want the accepted upload and the create", list.Sessions)
	}
}
