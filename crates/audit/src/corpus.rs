//! On-disk fuzz cases: the regression corpus and failure artifacts.
//!
//! A case is a small text file — engine, target, a human note, and the
//! raw bytes hex-encoded — so that a minimized crasher reads meaningfully
//! in a diff and replays exactly. Corpus replay runs before fresh
//! fuzzing: every bug ever fixed stays fixed.

use btcfast_crypto::hex;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One stored fuzz case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Engine name (`codec`, `diff`, `invariant`).
    pub engine: String,
    /// Target name within the engine (e.g. `compact-bits`).
    pub target: String,
    /// Free-form provenance note (what bug this case caught).
    pub note: String,
    /// The raw bytes the target's [`crate::source::ByteSource`] reads.
    pub bytes: Vec<u8>,
}

/// Corpus file parse failures.
#[derive(Debug)]
pub enum CorpusError {
    /// The corpus directory does not exist: a mistyped `--corpus` or a run
    /// from the wrong directory must not replay nothing and pass.
    Missing(PathBuf),
    /// Filesystem error.
    Io(io::Error),
    /// A case file was malformed.
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Missing(dir) => {
                write!(f, "corpus directory {} does not exist", dir.display())
            }
            CorpusError::Io(e) => write!(f, "corpus io error: {e}"),
            CorpusError::Malformed { path, reason } => {
                write!(f, "malformed corpus case {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> CorpusError {
        CorpusError::Io(e)
    }
}

impl FuzzCase {
    /// Renders the case in the corpus text format.
    pub fn render(&self) -> String {
        format!(
            "engine = {}\ntarget = {}\nnote = {}\nbytes = {}\n",
            self.engine,
            self.target,
            self.note,
            hex::encode(&self.bytes)
        )
    }

    /// Parses the corpus text format.
    ///
    /// # Errors
    ///
    /// Returns a reason string on missing or malformed fields.
    pub fn parse(text: &str) -> Result<FuzzCase, String> {
        let mut engine = None;
        let mut target = None;
        let mut note = String::new();
        let mut bytes = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line without '=': {line:?}"))?;
            match key.trim() {
                "engine" => engine = Some(value.trim().to_string()),
                "target" => target = Some(value.trim().to_string()),
                "note" => note = value.trim().to_string(),
                "bytes" => bytes = Some(hex::decode(value.trim()).map_err(|e| e.to_string())?),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(FuzzCase {
            engine: engine.ok_or("missing engine")?,
            target: target.ok_or("missing target")?,
            note,
            bytes: bytes.ok_or("missing bytes")?,
        })
    }

    /// Writes the case to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.render())
    }
}

/// Loads every `*.case` file under `dir`, sorted by file name so replay
/// order (and therefore metrics and output) is deterministic.
///
/// # Errors
///
/// See [`CorpusError`].
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, FuzzCase)>, CorpusError> {
    let mut paths = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(CorpusError::Missing(dir.to_path_buf()))
        }
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("case") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut cases = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)?;
        let case = FuzzCase::parse(&text).map_err(|reason| CorpusError::Malformed {
            path: path.clone(),
            reason,
        })?;
        cases.push((path, case));
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let case = FuzzCase {
            engine: "codec".into(),
            target: "compact-bits".into(),
            note: "sign bit with zero mantissa".into(),
            bytes: vec![0x00, 0x00, 0x80, 0x03],
        };
        let text = case.render();
        assert_eq!(FuzzCase::parse(&text).unwrap(), case);
    }

    #[test]
    fn hex_round_trip_and_errors() {
        let bytes = |hex: &str| {
            FuzzCase::parse(&format!("engine = e\ntarget = t\nbytes = {hex}\n")).map(|c| c.bytes)
        };
        assert_eq!(bytes("00ff7f"), Ok(vec![0, 0xff, 0x7f]));
        assert_eq!(bytes(" 00FF7F "), Ok(vec![0, 0xff, 0x7f]));
        assert!(bytes("abc").is_err());
        assert!(bytes("zz").is_err());
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(FuzzCase::parse("engine = codec\nbytes = 00\n").is_err());
        assert!(FuzzCase::parse("engine = codec\ntarget = t\nbytes = 0g\n").is_err());
    }
}
