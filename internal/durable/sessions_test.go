package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSessionSpillRoundTripAndRejects pins the spill's framing: a written
// spill reads back intact, a missing one is (nil, nil), and a torn, a
// CRC-flipped, or a foreign file is rejected with its error — never decoded.
func TestSessionSpillRoundTripAndRejects(t *testing.T) {
	dir := t.TempDir()
	if sp, err := ReadSessions(dir); sp != nil || err != nil {
		t.Fatalf("missing spill = (%v, %v), want (nil, nil)", sp, err)
	}
	want := &SessionSpill{Sessions: []SessionRecord{{
		Token: "tok", Tenant: "alice", ParkedAtMillis: 7,
		Subs: []SessionSub{{ID: 1, Query: "alice/q", Head: 3, Cursor: 1, RingStart: 2, Ring: [][]byte{{1, 2}, {3}}}},
	}}}
	if err := WriteSessions(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSessions(dir)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = (%+v, %v), want %+v", got, err, want)
	}
	if _, err := os.Stat(filepath.Join(dir, SessionSpillFile+".tmp")); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}

	path := filepath.Join(dir, SessionSpillFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0x01
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"torn", good[:len(good)-5], "torn session spill"},
		{"crc", flipped, "session spill CRC mismatch"},
		{"magic", append([]byte("PPMCKPT\n"), good[8:]...), "not a session spill"},
		{"short", good[:10], "not a session spill"},
	} {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		sp, err := ReadSessions(dir)
		if sp != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s spill = (%v, %v), want error %q", tc.name, sp, err, tc.want)
		}
	}
	if err := RemoveSessions(dir); err != nil {
		t.Fatal(err)
	}
	if err := RemoveSessions(dir); err != nil {
		t.Errorf("removing a missing spill: %v", err)
	}
}
