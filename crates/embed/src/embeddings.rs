//! The final node embeddings `φ : V → R^d`.

use crate::kernel::dot;
use distger_cluster::wire::{
    invalid_data, put_f32s, put_u32, put_u64, write_atomically, Checksum, WireReader,
};
use distger_graph::NodeId;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Magic bytes opening the binary embedding store format.
const BINARY_MAGIC: [u8; 4] = *b"DGEB";
/// Current binary store version; bumped on any layout change (v2: the
/// checksum became the workspace-wide [`Checksum`] and covers the header).
const BINARY_VERSION: u32 = 2;
/// Header size: magic + version (u32) + dim (u32) + nodes (u64) +
/// checksum (u64), all little-endian.
const BINARY_HEADER_LEN: usize = 4 + 4 + 4 + 8 + 8;
/// Floats per pass of the store writer's chunk buffer.
const WRITE_CHUNK_FLOATS: usize = 16 * 1024;

/// Dense node embeddings indexed by original node id.
#[derive(Clone, Debug, PartialEq)]
pub struct Embeddings {
    dim: usize,
    data: Vec<f32>,
}

impl Embeddings {
    /// Creates embeddings from a row-major matrix indexed by node id.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_node_major(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0);
        assert_eq!(data.len() % dim, 0, "data must contain whole rows");
        Self { dim, data }
    }

    /// Creates all-zero embeddings for `n` nodes.
    pub fn zeros(n: usize, dim: usize) -> Self {
        Self {
            dim,
            data: vec![0.0; n * dim],
        }
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded nodes.
    pub fn num_nodes(&self) -> usize {
        self.data.len() / self.dim
    }

    /// The embedding vector of `node`.
    #[inline]
    pub fn vector(&self, node: NodeId) -> &[f32] {
        let i = node as usize * self.dim;
        &self.data[i..i + self.dim]
    }

    /// Mutable access to the embedding vector of `node`.
    #[inline]
    pub fn vector_mut(&mut self, node: NodeId) -> &mut [f32] {
        let i = node as usize * self.dim;
        &mut self.data[i..i + self.dim]
    }

    /// Dot-product similarity `φ(u)·φ(v)` — the link-prediction score used in
    /// §6.4.
    pub fn dot(&self, u: NodeId, v: NodeId) -> f32 {
        dot(self.vector(u), self.vector(v))
    }

    /// Cosine similarity between two node embeddings (0 when either is zero).
    pub fn cosine(&self, u: NodeId, v: NodeId) -> f32 {
        let nu = self.dot(u, u).sqrt();
        let nv = self.dot(v, v).sqrt();
        if nu == 0.0 || nv == 0.0 {
            0.0
        } else {
            self.dot(u, v) / (nu * nv)
        }
    }

    /// Element-wise Hadamard product of two node embeddings, a standard edge
    /// feature for link-prediction classifiers.
    pub fn hadamard(&self, u: NodeId, v: NodeId) -> Vec<f32> {
        self.vector(u)
            .iter()
            .zip(self.vector(v))
            .map(|(a, b)| a * b)
            .collect()
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Writes the embeddings in the word2vec text format
    /// (`<n> <dim>` header, then `<node> <v_1> … <v_d>` per line).
    ///
    /// Each row is formatted into a reusable line buffer and written with a
    /// single call, so the per-value cost is formatting alone — not a
    /// `BufWriter` round trip per float.
    pub fn save_text(&self, path: impl AsRef<Path>) -> io::Result<()> {
        use std::fmt::Write as _;
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::with_capacity(16 * (self.dim + 1));
        writeln!(w, "{} {}", self.num_nodes(), self.dim)?;
        for u in 0..self.num_nodes() {
            line.clear();
            let _ = write!(line, "{u}");
            for x in self.vector(u as NodeId) {
                let _ = write!(line, " {x}");
            }
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        w.flush()
    }

    /// Reads embeddings written by [`Embeddings::save_text`].
    ///
    /// A malformed file — bad header, node id outside the declared range, or
    /// a row with the wrong number of values — is an
    /// [`io::ErrorKind::InvalidData`] error, never a panic. Rows may appear
    /// in any order; nodes without a row keep zero vectors.
    pub fn load_text(path: impl AsRef<Path>) -> io::Result<Self> {
        let reader = BufReader::new(std::fs::File::open(path)?);
        let mut lines = reader.lines();
        let header = lines.next().ok_or_else(|| invalid_data("empty file"))??;
        let mut parts = header.split_whitespace();
        let n: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid_data("bad header"))?;
        let dim: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .filter(|&d| d > 0)
            .ok_or_else(|| invalid_data("bad header"))?;
        let len = n
            .checked_mul(dim)
            .ok_or_else(|| invalid_data("header overflows"))?;
        let mut data = vec![0.0f32; len];
        for line in lines {
            let line = line?;
            let mut it = line.split_whitespace();
            let node: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .filter(|&u| u < n)
                .ok_or_else(|| invalid_data("row node id missing or out of range"))?;
            let row = &mut data[node * dim..(node + 1) * dim];
            let mut count = 0;
            for (slot, tok) in row.iter_mut().zip(&mut it) {
                *slot = tok.parse().map_err(|_| invalid_data("bad value"))?;
                count += 1;
            }
            if count != dim || it.next().is_some() {
                return Err(invalid_data(format!(
                    "row for node {node} does not have exactly {dim} values"
                )));
            }
        }
        Ok(Self { dim, data })
    }

    /// Writes the embeddings in the versioned binary store format — the hot
    /// path between training and serving (no float formatting/parsing, ~3x
    /// smaller on disk, bit-exact round trip).
    ///
    /// Layout (all little-endian): magic `"DGEB"`, format version (`u32`),
    /// `dim` (`u32`), `num_nodes` (`u64`), [`Checksum`] of the payload and
    /// the header bytes before it (`u64`), then the node-major `f32` matrix.
    ///
    /// The write is crash-safe ([`write_atomically`]): a crash (or error)
    /// partway through can never leave a torn file under the final name — a
    /// previously saved store survives intact.
    pub fn save_binary(&self, path: impl AsRef<Path>) -> io::Result<()> {
        write_atomically(path.as_ref(), |w| self.write_binary(w))
    }

    fn write_binary(&self, w: &mut dyn Write) -> io::Result<()> {
        let dim = u32::try_from(self.dim).map_err(|_| invalid_data("dim exceeds u32"))?;
        let mut header = Vec::with_capacity(BINARY_HEADER_LEN);
        header.extend_from_slice(&BINARY_MAGIC);
        put_u32(&mut header, BINARY_VERSION);
        put_u32(&mut header, dim);
        put_u64(&mut header, self.num_nodes() as u64);
        // One pass to checksum, one to write, both through a chunk buffer so
        // the payload never exists twice in memory.
        let mut payload_sum = Checksum::new();
        let mut buf = Vec::with_capacity(4 * WRITE_CHUNK_FLOATS);
        for chunk in self.data.chunks(WRITE_CHUNK_FLOATS) {
            buf.clear();
            put_f32s(&mut buf, chunk);
            payload_sum.update(&buf);
        }
        let checksum = payload_sum.finish(&header);
        put_u64(&mut header, checksum);
        w.write_all(&header)?;
        for chunk in self.data.chunks(WRITE_CHUNK_FLOATS) {
            buf.clear();
            put_f32s(&mut buf, chunk);
            w.write_all(&buf)?;
        }
        Ok(())
    }

    /// Reads embeddings written by [`Embeddings::save_binary`]; see
    /// [`Embeddings::decode_binary`] for what is rejected.
    pub fn load_binary(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::decode_binary(&std::fs::read(path)?)
    }

    /// Decodes the bytes of a binary store.
    ///
    /// Wrong magic, unknown version, a truncated or oversized payload, and a
    /// checksum mismatch are all errors ([`io::ErrorKind::InvalidData`], or
    /// `UnexpectedEof` for bytes that end inside the header), never panics —
    /// and a corrupt header cannot trigger a huge allocation, because the
    /// declared shape is checked against the bytes that are actually there
    /// before anything is allocated for it.
    pub fn decode_binary(bytes: &[u8]) -> io::Result<Self> {
        if !bytes.starts_with(&BINARY_MAGIC) {
            return Err(invalid_data("not a DGEB embedding store (bad magic)"));
        }
        let mut r = WireReader::new(&bytes[BINARY_MAGIC.len()..]);
        let version = r.u32()?;
        if version != BINARY_VERSION {
            return Err(invalid_data(format!(
                "unsupported store version {version} (expected {BINARY_VERSION})"
            )));
        }
        let dim = r.u32()? as usize;
        if dim == 0 {
            return Err(invalid_data("zero dimension"));
        }
        let nodes = r.u64()?;
        let stored_checksum = r.u64()?;
        let mut payload_sum = Checksum::new();
        payload_sum.update(&bytes[BINARY_HEADER_LEN..]);
        if payload_sum.finish(&bytes[..BINARY_HEADER_LEN - 8]) != stored_checksum {
            return Err(invalid_data("checksum mismatch — store is corrupt"));
        }
        // The reader now stands at the payload: exactly `nodes` rows.
        let floats = usize::try_from(nodes)
            .ok()
            .and_then(|nodes| nodes.checked_mul(dim))
            .ok_or_else(|| invalid_data("header overflows"))?;
        let data = r.f32s(floats)?;
        r.finish()?;
        Ok(Self { dim, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Embeddings {
        Embeddings::from_node_major(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2)
    }

    #[test]
    fn accessors_and_similarities() {
        let e = sample();
        assert_eq!(e.num_nodes(), 3);
        assert_eq!(e.dim(), 2);
        assert_eq!(e.vector(1), &[0.0, 1.0]);
        assert_eq!(e.dot(0, 1), 0.0);
        assert_eq!(e.dot(0, 2), 1.0);
        assert!((e.cosine(2, 2) - 1.0).abs() < 1e-6);
        assert_eq!(e.hadamard(0, 2), vec![1.0, 0.0]);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let e = Embeddings::zeros(2, 4);
        assert_eq!(e.cosine(0, 1), 0.0);
    }

    #[test]
    fn vector_mut_updates() {
        let mut e = Embeddings::zeros(2, 2);
        e.vector_mut(1)[0] = 5.0;
        assert_eq!(e.vector(1), &[5.0, 0.0]);
    }

    #[test]
    fn save_and_load_round_trip() {
        let e = sample();
        let dir = std::env::temp_dir().join("distger_embed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("emb.txt");
        e.save_text(&path).unwrap();
        let loaded = Embeddings::load_text(&path).unwrap();
        assert_eq!(e, loaded);
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn from_node_major_validates_shape() {
        Embeddings::from_node_major(vec![1.0, 2.0, 3.0], 2);
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("distger_embed_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let e =
            Embeddings::from_node_major(vec![1.5, -0.0, f32::MIN_POSITIVE, 3.25e7, -1e-20, 0.1], 3);
        let path = temp_path("emb.bin");
        e.save_binary(&path).unwrap();
        let loaded = Embeddings::load_binary(&path).unwrap();
        // Bit-exact, not just approximately equal (including -0.0).
        for (a, b) in e.data.iter().zip(&loaded.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(loaded.dim(), 3);
        std::fs::remove_file(path).ok();
    }

    /// A store laid out by hand, sealed with a valid checksum whatever the
    /// header claims.
    fn store_bytes(dim: u32, nodes: u64, data: &[f32]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_f32s(&mut payload, data);
        let mut bytes = BINARY_MAGIC.to_vec();
        put_u32(&mut bytes, BINARY_VERSION);
        put_u32(&mut bytes, dim);
        put_u64(&mut bytes, nodes);
        let mut payload_sum = Checksum::new();
        payload_sum.update(&payload);
        let checksum = payload_sum.finish(&bytes);
        put_u64(&mut bytes, checksum);
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Corruption is the checksum's job (`tests/hostile_bytes.rs` drives every
    /// prefix, flip and lying length through `decode_binary`); here: the
    /// layout, and shape lies behind a *valid* checksum.
    #[test]
    fn shape_lies_behind_a_valid_checksum_are_rejected() {
        let e = sample();
        let path = temp_path("emb_hostile.bin");
        e.save_binary(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        assert_eq!(bytes, store_bytes(2, 3, &e.data), "the documented layout");
        for (dim, nodes) in [(2, u64::MAX), (2, 4), (2, 2), (0, 3), (u32::MAX, 3), (3, 3)] {
            let lie = store_bytes(dim, nodes, &e.data);
            assert!(Embeddings::decode_binary(&lie).is_err(), "{dim} x {nodes}");
        }
        let mut old_version = bytes;
        old_version[4] = 1;
        let err = Embeddings::decode_binary(&old_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn text_load_rejects_malformed_rows_without_panicking() {
        let path = temp_path("emb_bad.txt");
        // Node id beyond the declared count used to index out of bounds.
        std::fs::write(&path, "2 2\n5 1.0 2.0\n").unwrap();
        assert_eq!(
            Embeddings::load_text(&path).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        // Too many values in a row used to index out of bounds.
        std::fs::write(&path, "2 2\n0 1.0 2.0 3.0\n").unwrap();
        assert!(Embeddings::load_text(&path)
            .unwrap_err()
            .to_string()
            .contains("exactly 2 values"));
        // Too few values is now a hard error too (silent zero-fill hid
        // truncation).
        std::fs::write(&path, "2 2\n0 1.0\n").unwrap();
        assert!(Embeddings::load_text(&path).is_err());
        // Unparseable value.
        std::fs::write(&path, "2 2\n0 1.0 abc\n").unwrap();
        assert!(Embeddings::load_text(&path).is_err());
        // Bad headers.
        for bad in ["", "2", "x 2", "2 0"] {
            std::fs::write(&path, format!("{bad}\n")).unwrap();
            assert!(Embeddings::load_text(&path).is_err(), "accepted {bad:?}");
        }
        std::fs::remove_file(path).ok();
    }
}
