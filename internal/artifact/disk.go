package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// On-disk entry format, little-endian:
//
//	magic   [4]byte  "SPAC"
//	version uint16   formatVersion
//	kind    uint8
//	key     [32]byte image content hash
//	plen    uint32   payload length
//	payload [plen]byte
//	sum     [32]byte SHA-256 of payload
//
// The key and version live inside the file (not only in its name) so a
// renamed or stale file can never masquerade as a different image's
// artifact. The trust boundary is corruption and staleness, not malice:
// the checksum catches torn or bit-rotted files, the embedded key
// catches misfiled ones, and the version gates format evolution — a
// hostile writer with access to the cache directory could still plant a
// well-formed file, which is the same trust level as the binary itself.
const (
	diskMagic     = "SPAC"
	formatVersion = 3
	headerSize    = 4 + 2 + 1 + 32 + 4
)

// kind tags the artifact type inside an entry.
type kind uint8

// kindPredecode is the one kind stored today. Kinds 2 (static analysis)
// and 3 (hot-trace warm seed) belonged to format version 2 and are
// retired with it.
const kindPredecode kind = 1

func (k kind) String() string {
	if k == kindPredecode {
		return "predecode"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// NewDiskStore returns a store backed by the persistent cache directory
// dir, creating it (and parents) when missing. An unusable directory —
// not creatable, not a directory, or not writable — is an error so the
// CLIs can fail fast instead of silently running uncached.
func NewDiskStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: cache dir %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("artifact: cache dir %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	s := NewStore()
	s.dir = dir
	return s, nil
}

// Dir returns the persistent cache directory, or "" for an in-process
// only store.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryPath(k Key, kd kind) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%s.v%d", k.String(), kd, formatVersion))
}

// readDisk loads and validates one cache entry. ok is false — and the
// caller proceeds down the cold path — for a store without a disk
// layer, an absent file, or any integrity failure (which also counts a
// disk error). It never returns an error: the disk layer is strictly an
// accelerator.
func (s *Store) readDisk(k Key, kd kind) (payload []byte, ok bool) {
	if s.dir == "" {
		return nil, false
	}
	if s.fetchHist != nil {
		fetchStart := time.Now()
		defer func() { s.fetchHist.Observe(uint64(time.Since(fetchStart))) }()
	}
	data, err := os.ReadFile(s.entryPath(k, kd))
	if err != nil {
		if os.IsNotExist(err) {
			s.diskMisses.Add(1)
		} else {
			s.diskErrors.Add(1)
		}
		return nil, false
	}
	s.diskBytesRead.Add(uint64(len(data)))
	if len(data) < headerSize+sha256.Size ||
		string(data[:4]) != diskMagic ||
		binary.LittleEndian.Uint16(data[4:]) != formatVersion ||
		kind(data[6]) != kd ||
		!bytes.Equal(data[7:39], k[:]) {
		s.diskErrors.Add(1)
		return nil, false
	}
	plen := binary.LittleEndian.Uint32(data[39:])
	if uint64(len(data)) != headerSize+uint64(plen)+sha256.Size {
		s.diskErrors.Add(1)
		return nil, false
	}
	payload = data[headerSize : headerSize+plen]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[headerSize+plen:]) {
		s.diskErrors.Add(1)
		return nil, false
	}
	s.diskHits.Add(1)
	return payload, true
}

// writeDisk persists one cache entry with an atomic rename, so readers
// (including concurrent processes) only ever observe complete files.
// Failures count a disk error and are otherwise ignored: persisting is
// best-effort, the in-process result is already correct.
func (s *Store) writeDisk(k Key, kd kind, payload []byte) {
	if s.dir == "" {
		return
	}
	buf := make([]byte, 0, headerSize+len(payload)+sha256.Size)
	buf = append(buf, diskMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, formatVersion)
	buf = append(buf, byte(kd))
	buf = append(buf, k[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)

	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		s.diskErrors.Add(1)
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.diskErrors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), s.entryPath(k, kd)); err != nil {
		os.Remove(tmp.Name())
		s.diskErrors.Add(1)
		return
	}
	s.diskWrites.Add(1)
	s.diskBytesWritten.Add(uint64(len(buf)))
}
