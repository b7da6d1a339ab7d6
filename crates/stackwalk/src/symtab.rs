//! Binary images and symbol-table bookkeeping.
//!
//! Before a daemon can symbolise a stack trace it must parse the symbol tables of the
//! application executable and every shared library in the address space.  The parse
//! itself is cheap CPU work; what the paper discovered (Section VI) is that the *read*
//! is not cheap when a thousand daemons do it simultaneously against one NFS server.
//! [`SymbolTableCache`] tracks which images a daemon has already parsed — each image is
//! read exactly once per daemon — and reports the bytes that still need to be fetched,
//! which is the quantity the sampling cost model charges to the file system.

use std::collections::HashSet;

/// One binary image (executable or shared library) in the target's address space.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BinaryImage {
    /// Path as the application sees it (used for mount-table classification).
    pub path: String,
    /// File size in bytes; symbol-table parsing reads a size-proportional fraction.
    pub bytes: u64,
}

impl BinaryImage {
    /// Construct an image record.
    pub fn new(path: impl Into<String>, bytes: u64) -> Self {
        BinaryImage {
            path: path.into(),
            bytes,
        }
    }
}

/// Per-daemon record of which images have already been parsed.
#[derive(Clone, Debug, Default)]
pub struct SymbolTableCache {
    parsed: HashSet<String>,
    bytes_parsed: u64,
}

impl SymbolTableCache {
    /// An empty cache (a freshly launched daemon).
    pub fn new() -> Self {
        SymbolTableCache::default()
    }

    /// Whether an image has already been parsed by this daemon.
    pub fn contains(&self, image: &BinaryImage) -> bool {
        self.parsed.contains(&image.path)
    }

    /// Record that an image has been parsed.  Returns `true` if it was new work.
    pub fn record(&mut self, image: &BinaryImage) -> bool {
        let new = self.parsed.insert(image.path.clone());
        if new {
            self.bytes_parsed += image.bytes;
        }
        new
    }

    /// The images from `working_set` that still need parsing, in order.
    pub fn missing<'a>(&self, working_set: &'a [BinaryImage]) -> Vec<&'a BinaryImage> {
        working_set.iter().filter(|i| !self.contains(i)).collect()
    }

    /// Total bytes of symbol data this daemon has parsed so far.
    pub fn bytes_parsed(&self) -> u64 {
        self.bytes_parsed
    }
}

/// Build the [`BinaryImage`] working set of a cluster's target application.
pub fn working_set_of(cluster: &machine::Cluster) -> Vec<BinaryImage> {
    cluster
        .binary_working_set
        .iter()
        .map(|(path, bytes)| BinaryImage::new(path.clone(), *bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cluster::{BglMode, Cluster};

    #[test]
    fn cache_parses_each_image_once() {
        let mut cache = SymbolTableCache::new();
        let exe = BinaryImage::new("/g/g0/user/a.out", 10_240);
        let lib = BinaryImage::new("/g/g0/user/lib/libmpi.so", 4 << 20);
        assert!(cache.record(&exe));
        assert!(!cache.record(&exe), "second parse is a cache hit");
        assert!(cache.record(&lib));
        assert_eq!(cache.parsed.len(), 2);
        assert_eq!(cache.bytes_parsed(), 10_240 + (4 << 20));
    }

    #[test]
    fn missing_reports_unparsed_images_in_order() {
        let mut cache = SymbolTableCache::new();
        let ws = vec![
            BinaryImage::new("/a", 1),
            BinaryImage::new("/b", 2),
            BinaryImage::new("/c", 3),
        ];
        cache.record(&ws[1]);
        let missing = cache.missing(&ws);
        assert_eq!(missing.len(), 2);
        assert_eq!(missing[0].path, "/a");
        assert_eq!(missing[1].path, "/c");
    }

    #[test]
    fn working_sets_match_the_machines() {
        let atlas = working_set_of(&Cluster::atlas());
        assert!(
            atlas.len() >= 3,
            "dynamically linked app has several images"
        );
        let bgl = working_set_of(&Cluster::bluegene_l(BglMode::CoProcessor));
        assert_eq!(bgl.len(), 1, "statically linked app is one image");
        assert!(bgl[0].bytes > atlas[0].bytes, "static binary is bigger");
    }
}
