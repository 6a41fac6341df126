// Package wire implements a compact protobuf-style binary encoding:
// varint scalars and length-delimited fields addressed by numeric tags.
// The CRIU-CXL baseline serializes its checkpoint images with it
// (standing in for CRIU's real Protocol Buffers images), and CXLfork
// uses it for the small amount of global state it must still serialize
// (file paths, permissions, mounts, PID namespaces — paper §4.1).
//
// A Decoder's error is sticky: the first malformed read records an
// error wrapping ErrCorrupt, every later read returns the zero value,
// and More reports false. A decode loop therefore assigns fields as it
// reads them and checks Err once, after the loop; Fail carries a nested
// record's error into the enclosing decoder.
//
// Entry points: NewEncoder and Decoder.
package wire
