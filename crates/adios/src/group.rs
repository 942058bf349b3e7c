//! Process Groups: one rank's variables for one I/O timestep.

use evpath::{FieldValue, Record};

use crate::var::VarValue;

/// "During each I/O timestep, the variables written from each simulation
/// process are conceptually packed into a group, called Process Group, and
/// the analytics specifies the process groups it wants to read by
/// simulation processes' MPI ranks." (§II.B)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProcessGroup {
    /// Writing rank.
    pub rank: usize,
    /// I/O timestep index.
    pub step: u64,
    /// Variables in write order.
    pub vars: Vec<(String, VarValue)>,
}

impl ProcessGroup {
    /// New empty group for `(rank, step)`.
    pub fn new(rank: usize, step: u64) -> ProcessGroup {
        ProcessGroup { rank, step, vars: Vec::new() }
    }

    /// Append a variable.
    pub fn push(&mut self, name: &str, value: VarValue) {
        self.vars.push((name.to_string(), value));
    }

    /// Find a variable by name.
    pub fn get(&self, name: &str) -> Option<&VarValue> {
        self.vars.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Encode to the wire/disk representation.
    pub fn to_record(&self) -> Record {
        let mut r = Record::with_capacity(3 + 2 * self.vars.len())
            .with("rank", FieldValue::U64(self.rank as u64))
            .with("step", FieldValue::U64(self.step))
            .with("nvars", FieldValue::U64(self.vars.len() as u64));
        for (i, (name, value)) in self.vars.iter().enumerate() {
            r.set_item("name", &[i], FieldValue::Str(name.as_str().into()));
            r.set_item("var", &[i], FieldValue::Record(value.to_record()));
        }
        r
    }

    /// Decode, moving names and values out of the record; `None` on
    /// malformed input. The variable count is the record's word: a count
    /// above its field count is refused before it can size an allocation.
    pub fn from_record(r: impl Into<Record>) -> Option<ProcessGroup> {
        let mut r = r.into();
        let rank = r.get_u64("rank")? as usize;
        let step = r.get_u64("step")?;
        let nvars = r.get_u64("nvars").filter(|&n| n <= r.len() as u64)? as usize;
        let mut vars = Vec::with_capacity(nvars);
        for i in 0..nvars {
            let Some(FieldValue::Str(name)) = r.take_item("name", &[i]) else { return None };
            let Some(FieldValue::Record(value)) = r.take_item("var", &[i]) else { return None };
            vars.push((name.into(), VarValue::from_record(value)?));
        }
        Some(ProcessGroup { rank, step, vars })
    }

    /// Encode straight to bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.to_record().encode()
    }

    /// Decode straight from bytes.
    pub fn decode(bytes: &[u8]) -> Option<ProcessGroup> {
        ProcessGroup::from_record(Record::decode(bytes).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{ArrayData, LocalBlock, ScalarValue};

    fn sample() -> ProcessGroup {
        let mut g = ProcessGroup::new(3, 7);
        g.push("nparticles", VarValue::Scalar(ScalarValue::U64(4)));
        g.push(
            "zion",
            VarValue::Block(
                LocalBlock {
                    global_shape: vec![8, 2],
                    offset: vec![6, 0],
                    count: vec![2, 2],
                    data: ArrayData::F64(vec![1.0, 2.0, 3.0, 4.0]),
                }
                .validated(),
            ),
        );
        g
    }

    #[test]
    fn roundtrip() {
        let g = sample();
        let decoded = ProcessGroup::decode(&g.encode()).unwrap();
        assert_eq!(g, decoded);
    }

    #[test]
    fn lookup_and_sizes() {
        let g = sample();
        assert!(matches!(g.get("nparticles"), Some(VarValue::Scalar(_))));
        assert!(g.get("absent").is_none());
        assert_eq!(g.vars.iter().map(|(_, v)| v.payload_bytes()).sum::<u64>(), 8 + 32);
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert!(ProcessGroup::decode(b"junk").is_none());
        // A record missing fields.
        let r = Record::new().with("rank", FieldValue::U64(1));
        assert!(ProcessGroup::from_record(r).is_none());
    }

    #[test]
    fn a_variable_count_the_record_cannot_hold_is_refused() {
        // Sizing a vector by this count would abort on the allocation.
        for nvars in [u64::MAX, 1 << 40, 3] {
            let r = sample().to_record().with("nvars", FieldValue::U64(nvars));
            assert!(ProcessGroup::from_record(r).is_none(), "nvars = {nvars}");
        }
    }
}
