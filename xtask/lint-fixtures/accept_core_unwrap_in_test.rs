// crate: core
// want: pass
#[cfg(test)]
mod tests {
    #[test]
    fn unwraps() {
        assert_eq!(*[1u8].first().unwrap(), 1);
    }
}
