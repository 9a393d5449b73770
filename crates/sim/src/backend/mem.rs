//! The in-memory log store: the original pure simulation's stable log.
//!
//! A torn log flush leaves a byte-accounted partial frame at the tail;
//! nothing else about the bytes is simulated. (The in-memory *disk* has
//! no store of its own: [`crate::disk::Disk`]'s page image is the stable
//! state.)

use super::LogBackend;

/// In-memory log store: the stable image is a plain byte vector.
#[derive(Clone, Debug, Default)]
pub struct MemLog {
    stable: Vec<u8>,
}

impl MemLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> MemLog {
        MemLog::default()
    }
}

impl LogBackend for MemLog {
    fn bytes(&self) -> &[u8] {
        &self.stable
    }

    fn append(&mut self, frames: &[u8]) {
        self.stable.extend_from_slice(frames);
    }

    fn truncate_to(&mut self, len: usize) {
        self.stable.truncate(len);
    }

    fn drain_prefix(&mut self, len: usize) {
        self.stable.drain(..len);
    }

    fn crash(&mut self) {
        // The stable image *is* the durable medium; nothing volatile to
        // drop.
    }

    fn syncs(&self) -> u64 {
        0
    }

    fn boxed_clone(&self) -> Box<dyn LogBackend> {
        Box::new(self.clone())
    }
}
