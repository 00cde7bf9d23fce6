package online

// DialSensors exposes the sensor-reader constructor so tests can count
// the sockets a run opens.
var DialSensors = &dialSensors
