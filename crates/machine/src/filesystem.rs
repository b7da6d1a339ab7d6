//! File-system models.
//!
//! Section VI of the paper traces STAT's poor stack-sampling scalability to an
//! environment interaction: every daemon independently parses the symbol tables of the
//! application binary and its shared libraries, and those files live on a *shared*
//! file system (NFS home directories, or Lustre scratch).  With no coordination, all
//! daemons hit the file server at once, so the nominally node-local sampling step
//! serializes behind the server.
//!
//! That finding is, at heart, an observation about an M/D/c-like queue: 512 daemons
//! simultaneously parsing a symbol table from one NFS server serialize behind the
//! server, so an operation that is nominally O(1) per daemon becomes O(n/c) in
//! wall-clock time.  Modelling that faithfully only requires a FIFO queue with a
//! configurable number of server slots and per-request service times, and the only
//! thing the figures read off the queue is when it drains — so a file system here is
//! per-access service-time formulas plus [`FileSystem::drain_time`], the makespan of
//! that queue.  The crucial distinction the paper exploits — and that SBRS removes —
//! is between *shared* file systems, where every daemon's accesses meet at the same
//! server, and *node-local* storage (RAM disk), where each daemon has its own private
//! "server" and accesses are embarrassingly parallel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simkit::prelude::*;

/// The flavours of file system that appear in the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FileSystemKind {
    /// An NFS-exported home directory: a single server, modest bandwidth, expensive
    /// metadata operations.  The default location users stage executables (the paper
    /// notes "following the common practice of our users").
    Nfs,
    /// A Lustre parallel file system: several object servers, better bandwidth, but
    /// metadata still funnels through one metadata server — which is why the paper
    /// found "LUSTRE offers little improvement over NFS" for symbol-table parsing at
    /// these scales.
    Lustre,
    /// Node-local RAM disk: the SBRS relocation target.  No shared server at all.
    RamDisk,
    /// Node-local disk (used for OS images and, after the OS update the paper
    /// mentions, some system shared libraries).
    LocalDisk,
}

impl FileSystemKind {
    /// Whether accesses from different nodes contend at a shared server.
    pub fn is_shared(self) -> bool {
        matches!(self, FileSystemKind::Nfs | FileSystemKind::Lustre)
    }

    /// Short label used in mount tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            FileSystemKind::Nfs => "nfs",
            FileSystemKind::Lustre => "lustre",
            FileSystemKind::RamDisk => "ramdisk",
            FileSystemKind::LocalDisk => "localdisk",
        }
    }
}

/// The kind of access a tool performs against a binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileAccessKind {
    /// `open()` + `stat()`-style metadata traffic.
    Metadata,
    /// Reading and parsing a symbol table of a given size.
    SymbolTableParse,
    /// Bulk sequential read (SBRS fetching the whole binary once).
    BulkRead,
}

/// A file system with calibrated service times.
#[derive(Clone, Debug)]
pub struct FileSystem {
    /// Which flavour this is.
    pub kind: FileSystemKind,
    /// Number of requests the server(s) can process concurrently.  NFS: 1–4 service
    /// threads effectively; Lustre: one per OST for data but 1 metadata server;
    /// node-local storage: effectively unlimited (modelled per-client).
    pub server_slots: usize,
    /// Service time for one metadata operation at the server.
    pub metadata_op: SimDuration,
    /// Sustained read bandwidth of one server slot, bytes/second.
    pub read_bytes_per_sec: f64,
    /// Effective bandwidth for the small, scattered reads symbol-table parsing
    /// performs.  Striped parallel file systems barely help here, which is why the
    /// paper found Lustre "offers little improvement over NFS" for sampling.
    pub scattered_read_bytes_per_sec: f64,
    /// Fixed per-file parse overhead on the *client* (CPU work, not server time).
    pub client_parse_overhead: SimDuration,
}

impl FileSystem {
    /// NFS home-directory model.  Calibrated so that ~500 daemons simultaneously
    /// parsing a multi-megabyte symbol-table working set produce the tens-of-seconds
    /// sampling times of Figure 8.
    pub fn nfs() -> Self {
        FileSystem {
            kind: FileSystemKind::Nfs,
            server_slots: 1,
            metadata_op: SimDuration::from_millis(1.2),
            read_bytes_per_sec: 90.0e6,
            scattered_read_bytes_per_sec: 90.0e6,
            client_parse_overhead: SimDuration::from_millis(40.0),
        }
    }

    /// Lustre scratch model: more data servers, but metadata operations still meet at
    /// a single metadata server, so symbol-table parsing (metadata- and small-read-
    /// heavy) barely improves — matching the paper's Figure 10 observation.
    pub fn lustre() -> Self {
        FileSystem {
            kind: FileSystemKind::Lustre,
            server_slots: 4,
            metadata_op: SimDuration::from_millis(2.3),
            read_bytes_per_sec: 350.0e6,
            scattered_read_bytes_per_sec: 110.0e6,
            client_parse_overhead: SimDuration::from_millis(40.0),
        }
    }

    /// Node-local RAM disk (the SBRS relocation target).
    pub fn ramdisk() -> Self {
        FileSystem {
            kind: FileSystemKind::RamDisk,
            server_slots: usize::MAX,
            metadata_op: SimDuration::from_micros(3.0),
            read_bytes_per_sec: 2.5e9,
            scattered_read_bytes_per_sec: 2.0e9,
            client_parse_overhead: SimDuration::from_millis(40.0),
        }
    }

    /// Node-local disk.
    pub fn local_disk() -> Self {
        FileSystem {
            kind: FileSystemKind::LocalDisk,
            server_slots: usize::MAX,
            metadata_op: SimDuration::from_micros(80.0),
            read_bytes_per_sec: 60.0e6,
            scattered_read_bytes_per_sec: 45.0e6,
            client_parse_overhead: SimDuration::from_millis(40.0),
        }
    }

    /// Construct the file system model for a kind.
    pub fn of_kind(kind: FileSystemKind) -> Self {
        match kind {
            FileSystemKind::Nfs => FileSystem::nfs(),
            FileSystemKind::Lustre => FileSystem::lustre(),
            FileSystemKind::RamDisk => FileSystem::ramdisk(),
            FileSystemKind::LocalDisk => FileSystem::local_disk(),
        }
    }

    /// Server-side service time of one access.  This is the amount of time the access
    /// occupies a server slot; queueing on top of it is [`FileSystem::drain_time`]'s job.
    pub fn server_service_time(&self, access: FileAccessKind, bytes: u64) -> SimDuration {
        match access {
            FileAccessKind::Metadata => self.metadata_op,
            FileAccessKind::SymbolTableParse => {
                // Parsing a symbol table touches the string and symbol sections
                // scattered through the file; we charge the server for reading roughly
                // the whole file at the scattered-read rate plus a handful of metadata
                // round trips.
                let read = SimDuration::from_secs(bytes as f64 / self.scattered_read_bytes_per_sec);
                self.metadata_op * 4 + read
            }
            FileAccessKind::BulkRead => {
                let read = SimDuration::from_secs(bytes as f64 / self.read_bytes_per_sec);
                self.metadata_op + read
            }
        }
    }

    /// Client-side CPU time of one access (does not contend at the server).
    pub fn client_service_time(&self, access: FileAccessKind, bytes: u64) -> SimDuration {
        match access {
            FileAccessKind::Metadata => SimDuration::from_micros(5.0),
            FileAccessKind::SymbolTableParse => {
                // Building the in-memory symbol lookup structures scales with file
                // size but is pure local CPU work.
                self.client_parse_overhead + SimDuration::from_secs(bytes as f64 / 400.0e6)
            }
            FileAccessKind::BulkRead => SimDuration::from_secs(bytes as f64 / 2.0e9),
        }
    }

    /// Time until the server(s) have finished every request, each given as
    /// `(arrival offset, service time)`.
    ///
    /// Requests are served first come, first served — ties in arrival keep their
    /// order in `requests` — by `server_slots` identical slots: a request starts when
    /// it has arrived *and* a slot is free.  Node-local storage has no shared server,
    /// so nothing queues there and each request completes `service` after it arrives.
    pub fn drain_time(&self, requests: &[(SimDuration, SimDuration)]) -> SimDuration {
        if !self.kind.is_shared() {
            return requests
                .iter()
                .map(|&(arrival, service)| arrival + service)
                .max()
                .unwrap_or(SimDuration::ZERO);
        }
        let slots = self.server_slots.max(1);
        let mut queue = requests.to_vec();
        queue.sort_by_key(|&(arrival, _)| arrival);
        // Min-heap of the times at which the slots in use fall free.
        let mut free_at = BinaryHeap::new();
        let mut drained = SimDuration::ZERO;
        for (arrival, service) in queue {
            // A slot is taken over from an earlier request only once all are in use.
            let freed = if free_at.len() < slots {
                None
            } else {
                free_at.pop()
            };
            let start = freed.map_or(arrival, |Reverse(earliest)| arrival.max(earliest));
            let done = start + service;
            free_at.push(Reverse(done));
            drained = drained.max(done);
        }
        drained
    }
}

/// A mounted-file-system table: which file system a given path lives on.
///
/// SBRS consults exactly this (the real implementation reads `/etc/mtab`) to decide
/// whether a binary needs to be relocated: only files on *shared* file systems are
/// broadcast to RAM disks.
#[derive(Clone, Debug, Default)]
pub struct MountTable {
    mounts: Vec<(String, FileSystemKind)>,
}

impl MountTable {
    /// An empty table (everything defaults to node-local disk).
    pub fn new() -> Self {
        MountTable { mounts: Vec::new() }
    }

    /// The default LLNL-style layout used by both machines in the paper: NFS home
    /// directories, Lustre scratch, a tmpfs RAM disk and a local OS image.
    pub fn llnl_default() -> Self {
        let mut t = MountTable::new();
        t.add("/g/g0", FileSystemKind::Nfs); // home directories
        t.add("/nfs", FileSystemKind::Nfs);
        t.add("/p/lscratch", FileSystemKind::Lustre);
        t.add("/tmp", FileSystemKind::RamDisk);
        t.add("/dev/shm", FileSystemKind::RamDisk);
        t.add("/usr", FileSystemKind::LocalDisk);
        t.add("/lib", FileSystemKind::LocalDisk);
        t
    }

    /// Register a mount point.  Longest-prefix match wins on lookup.
    pub fn add(&mut self, prefix: impl Into<String>, kind: FileSystemKind) {
        self.mounts.push((prefix.into(), kind));
        // Keep longest prefixes first so lookup can take the first match.
        self.mounts
            .sort_by_key(|(prefix, _)| std::cmp::Reverse(prefix.len()));
    }

    /// The file system a path resides on (node-local disk if no mount matches).
    pub fn filesystem_of(&self, path: &str) -> FileSystemKind {
        for (prefix, kind) in &self.mounts {
            if path.starts_with(prefix.as_str()) {
                return *kind;
            }
        }
        FileSystemKind::LocalDisk
    }

    /// Whether the path lives on a globally shared file system (and therefore needs
    /// relocation before a massively parallel tool can touch it safely).
    pub fn is_shared(&self, path: &str) -> bool {
        self.filesystem_of(path).is_shared()
    }

    /// All registered mount points (longest prefix first).
    pub fn mounts(&self) -> &[(String, FileSystemKind)] {
        &self.mounts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_classification() {
        assert!(FileSystemKind::Nfs.is_shared());
        assert!(FileSystemKind::Lustre.is_shared());
        assert!(!FileSystemKind::RamDisk.is_shared());
        assert!(!FileSystemKind::LocalDisk.is_shared());
    }

    #[test]
    fn ramdisk_is_much_faster_than_nfs_for_parsing() {
        let nfs = FileSystem::nfs();
        let ram = FileSystem::ramdisk();
        let four_mb = 4 << 20;
        let nfs_t = nfs.server_service_time(FileAccessKind::SymbolTableParse, four_mb);
        let ram_t = ram.server_service_time(FileAccessKind::SymbolTableParse, four_mb);
        assert!(nfs_t.as_secs() > 10.0 * ram_t.as_secs());
    }

    #[test]
    fn lustre_is_better_for_bulk_reads_but_not_metadata() {
        let nfs = FileSystem::nfs();
        let lustre = FileSystem::lustre();
        let big = 512 << 20;
        assert!(
            lustre.server_service_time(FileAccessKind::BulkRead, big)
                < nfs.server_service_time(FileAccessKind::BulkRead, big)
        );
        // Metadata ops are comparable: within a factor of 2.
        let nfs_md = nfs
            .server_service_time(FileAccessKind::Metadata, 0)
            .as_secs();
        let lus_md = lustre
            .server_service_time(FileAccessKind::Metadata, 0)
            .as_secs();
        assert!(lus_md > nfs_md * 0.5 && lus_md < nfs_md * 2.0);
    }

    #[test]
    fn client_parse_time_is_independent_of_filesystem() {
        let nfs = FileSystem::nfs();
        let ram = FileSystem::ramdisk();
        let b = 1 << 20;
        assert_eq!(
            nfs.client_service_time(FileAccessKind::SymbolTableParse, b),
            ram.client_service_time(FileAccessKind::SymbolTableParse, b)
        );
    }

    #[test]
    fn mount_table_longest_prefix_wins() {
        let mut t = MountTable::new();
        t.add("/g", FileSystemKind::LocalDisk);
        t.add("/g/g0", FileSystemKind::Nfs);
        assert_eq!(t.filesystem_of("/g/g0/user/a.out"), FileSystemKind::Nfs);
        assert_eq!(t.filesystem_of("/g/other"), FileSystemKind::LocalDisk);
        assert_eq!(t.filesystem_of("/unmounted"), FileSystemKind::LocalDisk);
    }

    #[test]
    fn llnl_default_classifies_typical_paths() {
        let t = MountTable::llnl_default();
        assert!(t.is_shared("/g/g0/lee218/ring_test"));
        assert!(t.is_shared("/p/lscratchb/run/app"));
        assert!(!t.is_shared("/tmp/stat/relocated/ring_test"));
        assert!(!t.is_shared("/usr/lib64/libmpi.so"));
    }

    fn ms(millis: f64) -> SimDuration {
        SimDuration::from_millis(millis)
    }

    #[test]
    fn single_server_serializes_requests() {
        let nfs = FileSystem::nfs();
        assert_eq!(nfs.server_slots, 1);
        let requests = [(SimDuration::ZERO, ms(10.0)); 4];
        assert_eq!(nfs.drain_time(&requests), ms(40.0));
        // Slots are clamped to at least one.
        let no_slots = FileSystem {
            server_slots: 0,
            ..nfs
        };
        assert_eq!(no_slots.drain_time(&requests), ms(40.0));
    }

    #[test]
    fn multiple_slots_run_in_parallel() {
        let lustre = FileSystem::lustre();
        assert_eq!(lustre.server_slots, 4);
        let requests = [(SimDuration::ZERO, ms(10.0)); 4];
        assert_eq!(lustre.drain_time(&requests), ms(10.0));
        // A fifth request waits for the first slot to fall free.
        let five = [(SimDuration::ZERO, ms(10.0)); 5];
        assert_eq!(lustre.drain_time(&five), ms(20.0));
    }

    #[test]
    fn staggered_arrivals_respect_time_order() {
        // Submitted late-arrival first: the queue orders by arrival, not submission.
        let requests = [(ms(5.0), ms(1.0)), (SimDuration::ZERO, ms(1.0))];
        assert_eq!(FileSystem::nfs().drain_time(&requests), ms(6.0));
    }

    #[test]
    fn node_local_storage_never_queues() {
        let requests = [(ms(1.0), ms(10.0)), (ms(3.0), ms(10.0)), (ms(2.0), ms(4.0))];
        for fs in [FileSystem::ramdisk(), FileSystem::local_disk()] {
            assert_eq!(fs.drain_time(&requests), ms(13.0));
            assert_eq!(fs.drain_time(&[]), SimDuration::ZERO);
        }
        assert_eq!(FileSystem::nfs().drain_time(&[]), SimDuration::ZERO);
    }
}
