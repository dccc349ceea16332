//! An in-memory `Vfs` for `durable-churn`'s set-up: the engine does all of
//! its set-up work (table creation, chunk encoding, checkpoint) against
//! it, so the timed set-up does not follow the disk's write-back latency.
//! The files are then written to the real directory once, untimed.

use ongoing_engine::Vfs;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

#[derive(Debug, Default)]
struct Tree {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
}

#[derive(Debug, Default)]
pub struct MemFs(Mutex<Tree>);

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemFs {
    fn tree(&self) -> MutexGuard<'_, Tree> {
        self.0.lock().expect("memfs lock")
    }

    /// Writes every directory and file to the real file system.
    pub fn save(&self) -> io::Result<()> {
        let tree = self.tree();
        for dir in &tree.dirs {
            std::fs::create_dir_all(dir)?;
        }
        for (path, data) in &tree.files {
            std::fs::write(path, data)?;
        }
        Ok(())
    }
}

impl Vfs for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.tree()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.tree().files.insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut tree = self.tree();
        tree.files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }

    fn sync_dir(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut tree = self.tree();
        let file = tree.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.resize(len as usize, 0);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        let data = tree.files.remove(from).ok_or_else(|| not_found(from))?;
        tree.files.insert(to.to_path_buf(), data);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.tree()
            .files
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let tree = self.tree();
        if !tree.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        let children = tree.files.keys().chain(&tree.dirs);
        let mut names: Vec<String> = children
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name()?.to_str().map(str::to_string))
            .collect();
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut tree = self.tree();
        for dir in path.ancestors().filter(|d| !d.as_os_str().is_empty()) {
            tree.dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }
}
