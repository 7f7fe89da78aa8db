package pegasus

import (
	"io"

	"pegasus/internal/persist"
)

// Disk-backed shard artifacts ------------------------------------------------
//
// The §IV deployment holds one personalized summary per machine; the persist
// layer makes those artifacts durable. Every artifact is encoded with a
// versioned, checksummed binary codec and filed in a content-addressed store
// under its shard content key, so a restarted cluster (or server — see
// ServerConfig.CacheDir) decodes its shards from disk instead of re-running
// summarization, with the same bit-identity guarantee as in-memory reuse.

type (
	// Artifact is one machine's persistable payload: the personalized
	// summary it serves.
	Artifact = persist.Artifact
	// ArtifactStore is a content-addressed artifact store over one
	// directory: Put/Get/GC over <dir>/<shardkey>.pgsum files, written with
	// temp-file + rename atomicity.
	ArtifactStore = persist.Store
	// ArtifactStoreStats is a snapshot of a store's hit/miss/byte counters.
	ArtifactStoreStats = persist.Stats
)

// Typed artifact-decoding failures: both mean "treat the artifact as absent
// and rebuild" — ErrArtifactCorrupt for structural damage (truncation, bit
// flips, bad checksums), ErrArtifactVersion for a file written by a codec
// version this build does not read.
var (
	ErrArtifactCorrupt = persist.ErrCorrupt
	ErrArtifactVersion = persist.ErrVersion
)

// OpenArtifactStore opens (creating if needed) a content-addressed artifact
// store over dir. Pass it to ClusterBuildOptions.Store to persist and
// warm-start cluster builds; pegasus-serve wires the same store through
// ServerConfig.CacheDir.
func OpenArtifactStore(dir string) (*ArtifactStore, error) {
	return persist.Open(dir)
}

// EncodeArtifact writes the artifact to w in the versioned, checksummed
// binary format (magic + version header, delta+varint payload, CRC-32
// trailer).
func EncodeArtifact(w io.Writer, a Artifact) error {
	return persist.Encode(w, a)
}

// DecodeArtifact parses an encoded artifact. Corrupt input yields an error
// wrapping ErrArtifactCorrupt, a future codec version one wrapping
// ErrArtifactVersion — never a panic.
func DecodeArtifact(data []byte) (Artifact, error) {
	return persist.Decode(data)
}
