//! Charging Data Records, as emitted by the 4G gateway (S/P-GW).
//!
//! Mirrors Trace 1 of the paper — the XML CDR produced by OpenEPC:
//!
//! ```xml
//! <chargingRecord>
//!   <servedIMSI>00 01 11 32 54 76 48 F5</servedIMSI>
//!   <gatewayAddress>192.168.2.11</gatewayAddress>
//!   ...
//!   <datavolumeUplink>274841</datavolumeUplink>
//!   <datavolumeDownlink>33604032</datavolumeDownlink>
//! </chargingRecord>
//! ```

use tlc_net::time::SimTime;

/// Wire size of a binary legacy LTE CDR, per the paper's Fig. 17 table
/// ("LTE CDR: 34 bytes"). Used when comparing signaling overheads.
pub const LEGACY_CDR_WIRE_BYTES: usize = 34;

/// An International Mobile Subscriber Identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Imsi(pub u64);

impl Imsi {
    /// Renders in the spaced-octet style OpenEPC uses in its XML CDRs.
    pub fn to_xml_octets(&self) -> String {
        self.0
            .to_be_bytes()
            .iter()
            .map(|b| format!("{b:02X}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One gateway charging record for one subscriber over one period.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChargingDataRecord {
    /// Subscriber the record covers.
    pub served_imsi: Imsi,
    /// IPv4 of the generating gateway, dotted-quad.
    pub gateway_address: String,
    /// Charging policy profile id.
    pub charging_id: u32,
    /// Gateway-local record sequence number.
    pub sequence_number: u64,
    /// First usage instant in the period.
    pub time_of_first_usage: SimTime,
    /// Last usage instant in the period.
    pub time_of_last_usage: SimTime,
    /// Uplink bytes metered at the gateway.
    pub datavolume_uplink: u64,
    /// Downlink bytes metered at the gateway.
    pub datavolume_downlink: u64,
}

impl ChargingDataRecord {
    /// Elapsed usage time in whole seconds (the `timeUsage` XML field).
    pub fn time_usage_secs(&self) -> u64 {
        (self.time_of_last_usage - self.time_of_first_usage).as_micros() / 1_000_000
    }

    /// Total metered volume, both directions.
    pub fn total_volume(&self) -> u64 {
        self.datavolume_uplink + self.datavolume_downlink
    }

    /// Serializes in the OpenEPC XML shape of Trace 1.
    pub fn to_xml(&self) -> String {
        format!(
            "<chargingRecord>\n\
             \t<servedIMSI>{}</servedIMSI>\n\
             \t<gatewayAddress>{}</gatewayAddress>\n\
             \t<chargingID>{}</chargingID>\n\
             \t<SequenceNumber>{}</SequenceNumber>\n\
             \t<timeOfFirstUsage>{}</timeOfFirstUsage>\n\
             \t<timeOfLastUsage>{}</timeOfLastUsage>\n\
             \t<timeUsage>{}</timeUsage>\n\
             \t<datavolumeUplink>{}</datavolumeUplink>\n\
             \t<datavolumeDownlink>{}</datavolumeDownlink>\n\
             </chargingRecord>",
            self.served_imsi.to_xml_octets(),
            self.gateway_address,
            self.charging_id,
            self.sequence_number,
            self.time_of_first_usage.as_secs(),
            self.time_of_last_usage.as_secs(),
            self.time_usage_secs(),
            self.datavolume_uplink,
            self.datavolume_downlink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ChargingDataRecord {
        ChargingDataRecord {
            served_imsi: Imsi(0x00011132547648F5),
            gateway_address: "192.168.2.11".to_string(),
            charging_id: 0,
            sequence_number: 1001,
            time_of_first_usage: SimTime::from_secs(100),
            time_of_last_usage: SimTime::from_secs(3700),
            datavolume_uplink: 274841,
            datavolume_downlink: 33604032,
        }
    }

    #[test]
    fn time_usage_matches_trace() {
        assert_eq!(record().time_usage_secs(), 3600);
    }

    #[test]
    fn imsi_octets_match_trace_format() {
        assert_eq!(
            record().served_imsi.to_xml_octets(),
            "00 01 11 32 54 76 48 F5"
        );
    }

    #[test]
    fn xml_contains_all_trace_fields() {
        let xml = record().to_xml();
        for tag in [
            "servedIMSI",
            "gatewayAddress",
            "chargingID",
            "SequenceNumber",
            "timeOfFirstUsage",
            "timeOfLastUsage",
            "timeUsage",
            "datavolumeUplink",
            "datavolumeDownlink",
        ] {
            assert!(xml.contains(&format!("<{tag}>")), "missing {tag}");
        }
        assert!(xml.contains("274841"));
        assert!(xml.contains("33604032"));
    }

    #[test]
    fn total_volume_sums_directions() {
        assert_eq!(record().total_volume(), 274841 + 33604032);
    }
}
