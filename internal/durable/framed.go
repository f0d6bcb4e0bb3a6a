package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Framed files — checkpoints and the session spill — share one layout:
//
//	magic (8) | len u32 | crc u32 (CRC32-IEEE of payload) | payload
//
// where payload is JSON. A file is written to a temp name, fsynced, renamed
// into place, and its directory synced, so a crash mid-write leaves either
// the previous file or a torn temp file; a reader rejects a wrong magic, a
// length that disagrees with the file (torn), and a CRC mismatch. what names
// the file kind in every error ("checkpoint", "session spill").
const frameHeaderLen = 16

// encodeFramed marshals v as JSON and frames it under magic.
func encodeFramed(magic, what string, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("durable: marshal %s: %w", what, err)
	}
	buf := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// writeFramed atomically replaces path with the framed bytes data.
func writeFramed(path, what string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %s: %w", what, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("durable: %s: %w", what, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: %s: %w", what, err)
	}
	syncDir(filepath.Dir(path))
	return nil
}

// readFramed loads path, verifies its frame, and decodes the payload into v.
// A read error (a missing file included) is returned unwrapped.
func readFramed(path, magic, what string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	name := filepath.Base(path)
	if len(data) < frameHeaderLen || string(data[:8]) != magic {
		return fmt.Errorf("durable: %s: not a %s", name, what)
	}
	length := binary.LittleEndian.Uint32(data[8:])
	crc := binary.LittleEndian.Uint32(data[12:])
	if int(length) != len(data)-frameHeaderLen {
		return fmt.Errorf("durable: %s: torn %s", name, what)
	}
	payload := data[frameHeaderLen:]
	if crc32.ChecksumIEEE(payload) != crc {
		return fmt.Errorf("durable: %s: %s CRC mismatch", name, what)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("durable: %s: %w", name, err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()  //nolint:errcheck // best effort; rename durability
	d.Close() //nolint:errcheck
}
